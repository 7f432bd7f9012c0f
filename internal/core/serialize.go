package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/data"
)

// Fitted-model serialization: a TDH fit over a large crawl takes seconds to
// minutes, while serving truths, trust scores and task assignments from it
// is instant. Save/Load let a fit be reused across processes. The snapshot
// stores parameters keyed by object/source/worker NAME — the wire format is
// independent of the dense ID assignment — and Load re-interns them against
// the index it is attached to, verifying the snapshot matches (same objects
// and candidate-set sizes), because the sufficient statistics are only
// meaningful against the records they were fitted on.

// snapshot is the wire form of a fitted model.
type snapshot struct {
	Options    Options              `json:"options"`
	Iterations int                  `json:"iterations"`
	FinalDelta float64              `json:"final_delta"`
	Mu         map[string][]float64 `json:"mu"`
	Phi        map[string][]float64 `json:"phi"`
	Psi        map[string][]float64 `json:"psi"`
	N          map[string][]float64 `json:"n"`
	D          map[string]float64   `json:"d"`
}

// Save writes the fitted model parameters as JSON.
func (m *Model) Save(w io.Writer) error {
	sn := snapshot{
		Options:    m.Opt,
		Iterations: m.Iterations,
		FinalDelta: m.FinalDelta,
		Mu:         make(map[string][]float64, m.NumObjects()),
		N:          make(map[string][]float64, m.NumObjects()),
		D:          make(map[string]float64, m.NumObjects()),
		Phi:        make(map[string][]float64, len(m.Phi)),
		Psi:        make(map[string][]float64, len(m.Psi)),
	}
	for oid, o := range m.Idx.Objects {
		sn.Mu[o] = m.MuAt(oid)
		sn.N[o] = m.NAt(oid)
		sn.D[o] = m.DAt(oid)
	}
	for sid, s := range m.Idx.SourceNames {
		sn.Phi[s] = m.Phi[sid][:]
	}
	for wid, w2 := range m.Idx.WorkerNames {
		sn.Psi[w2] = m.Psi[wid][:]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&sn)
}

// Load reads a model snapshot and attaches it to idx. It fails if the
// snapshot's objects or candidate-set sizes do not match the index.
// Parameters for objects/sources/workers unknown to idx are dropped.
func Load(r io.Reader, idx *data.Index) (*Model, error) {
	var sn snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if sn.Mu == nil || sn.N == nil || sn.D == nil {
		return nil, fmt.Errorf("core: snapshot missing parameter blocks")
	}
	m := newModelShell(idx, sn.Options)
	m.Opt = sn.Options // the shell fills defaults; keep the stored options verbatim
	m.Iterations, m.FinalDelta = sn.Iterations, sn.FinalDelta
	for oid, o := range idx.Objects {
		mu, ok := sn.Mu[o]
		if !ok {
			return nil, fmt.Errorf("core: snapshot missing object %q", o)
		}
		if want := idx.ViewAt(oid).CI.NumValues(); len(mu) != want {
			return nil, fmt.Errorf("core: object %q has %d candidates in the snapshot, %d in the index", o, len(mu), want)
		}
		n := sn.N[o]
		if len(n) != len(mu) {
			return nil, fmt.Errorf("core: object %q has inconsistent sufficient statistics", o)
		}
		copy(m.muRow(oid), mu)
		copy(m.nRow(oid), n)
		m.dFlat[oid] = sn.D[o]
	}
	//tdh:orderok each source name maps to a unique dense ID, so Phi rows are written disjointly
	for s, v := range sn.Phi {
		if len(v) != 3 {
			return nil, fmt.Errorf("core: phi(%s) has %d entries", s, len(v))
		}
		if sid, ok := idx.SourceID(s); ok {
			m.Phi[sid] = [3]float64{v[0], v[1], v[2]}
		}
	}
	//tdh:orderok each worker name maps to a unique dense ID, so Psi rows are written disjointly
	for w, v := range sn.Psi {
		if len(v) != 3 {
			return nil, fmt.Errorf("core: psi(%s) has %d entries", w, len(v))
		}
		if wid, ok := idx.WorkerID(w); ok {
			m.Psi[wid] = [3]float64{v[0], v[1], v[2]}
		}
	}
	return m, nil
}
