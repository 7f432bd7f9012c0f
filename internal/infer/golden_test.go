package infer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/synth"
)

// goldenInferencers is every registered categorical inferencer — TDH, its
// NOPOP ablation and the baselines — plus the lineage baselines the ablation
// experiment runs (SUMS, SIMPLELCA, ACCU-NODEP). The FLAT ablation is not an
// inferencer but an input: TDH on flatInput.
func goldenInferencers() []Inferencer {
	noPop := NewTDH()
	noPop.Opt.UniformWorkerErrors = true
	return []Inferencer{
		NewTDH(), noPop,
		Vote{}, LCA{}, DOCS{}, ASUMS{}, MDC{}, Accu{DetectDependence: true}, PopAccu{}, LFC{}, CRH{},
		Sums{}, SimpleLCA{}, Accu{},
	}
}

// goldenTable1 is the paper's running example (Table 1) plus enough extra
// objects to estimate source trust.
func goldenTable1(t testing.TB) *data.Dataset {
	return &data.Dataset{
		Name: "table1", H: geoTree(t), Truth: map[string]string{},
		Records: []data.Record{
			{Object: "statue", Source: "unesco", Value: "NY"},
			{Object: "statue", Source: "wiki", Value: "LibertyIsland"},
			{Object: "statue", Source: "arrangy", Value: "LA"},
			{Object: "bigben", Source: "quora", Value: "Manchester"},
			{Object: "bigben", Source: "trip", Value: "London"},
			{Object: "esb", Source: "unesco", Value: "NY"},
			{Object: "esb", Source: "wiki", Value: "NY"},
			{Object: "esb", Source: "arrangy", Value: "LA"},
			{Object: "abbey", Source: "wiki", Value: "Westminster"},
			{Object: "abbey", Source: "unesco", Value: "London"},
			{Object: "abbey", Source: "quora", Value: "Manchester"},
		},
	}
}

// flatInput is ds with its hierarchy stripped: the same objects, candidates
// and claims, every pair of candidates unrelated. TDH on it is the TDH-FLAT
// ablation.
func flatInput(ds *data.Dataset) *data.Dataset {
	flat := *ds
	flat.Name, flat.H = ds.Name+"/flat", nil
	return &flat
}

// withGoldenAnswers gives every other object one worker answer (objects
// 0, 2, 4, ... in sorted order, four workers round-robin, candidates
// rotating), so the fixtures exercise worker claims and worker trust.
func withGoldenAnswers(ds *data.Dataset) *data.Dataset {
	idx := data.NewIndex(ds)
	for oid, o := range idx.Objects {
		if oid%2 == 0 {
			vals := idx.ViewAt(oid).CI.Values
			ds.Answers = append(ds.Answers, data.Answer{
				Object: o, Worker: fmt.Sprintf("w%d", oid%4), Value: vals[oid%len(vals)],
			})
		}
	}
	return ds
}

// resultHash is an FNV-64a over what a result publishes: each object's name,
// truth and confidence row in sorted object order (NewIndex sorts
// idx.Objects), then the source trust and the worker trust in name order.
func resultHash(idx *data.Index, res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for oid, o := range idx.Objects {
		str(o)
		str(res.TruthAt(oid))
		row := res.ConfidenceAt(oid)
		num(float64(len(row)))
		for _, x := range row {
			num(x)
		}
	}
	for _, trust := range []map[string]float64{res.SourceTrust, res.WorkerTrust} {
		names := make([]string, 0, len(trust))
		for name := range trust {
			names = append(names, name)
		}
		sort.Strings(names)
		num(float64(len(names)))
		for _, name := range names {
			str(name)
			num(trust[name])
		}
	}
	return h.Sum64()
}

// TestInferencerGolden pins every inferencer's published result — truths,
// confidence rows, source and worker trust — to the bit on Table 1,
// BirthPlaces ×0.05 and Heritages ×0.1, each with worker answers. A change
// to how results are stored or read must leave every hash as it is.
func TestInferencerGolden(t *testing.T) {
	fixtures := []struct {
		name string
		ds   *data.Dataset
		want map[string]uint64
	}{
		{"table1", goldenTable1(t), map[string]uint64{
			"TDH": 0xaf870d852408ce7b, "TDH-FLAT": 0xaeaad08abd3cd685, "TDH-NOPOP": 0xaf870d852408ce7b,
			"VOTE": 0x76a57bed06a4ea38, "LCA": 0x101efea382a5a59c, "DOCS": 0xac6f43d5f6c50eb,
			"ASUMS": 0x4409c1b0b091dbe8, "MDC": 0x57730e9e7c9911ca, "ACCU": 0x11cefffef174651d,
			"POPACCU": 0xf24b325fba27008, "LFC": 0x6c6120616170f5ef, "CRH": 0x5f1d8ac5ec51083e,
			"SUMS": 0x1d4b0a7465b31bdf, "SIMPLELCA": 0x3ca659393b31bc69, "ACCU-NODEP": 0xac18da5a801fbd83,
		}},
		{"birthplaces", synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 9, Scale: 0.05}), map[string]uint64{
			"TDH": 0x5d7e37efb1fbb0fd, "TDH-FLAT": 0x9677eb9ad0816dc6, "TDH-NOPOP": 0x57a94980ee08d3c0,
			"VOTE": 0x17406828a86d1208, "LCA": 0xd56c0881dd693689, "DOCS": 0xa98ea18266ced15a,
			"ASUMS": 0x57413ca1a08bc490, "MDC": 0xee8c7695780f7639, "ACCU": 0xa91d817025b03d48,
			"POPACCU": 0x191275cb51c1e3ae, "LFC": 0x4e3ad417498a3f11, "CRH": 0x5f1ac782db8a4239,
			"SUMS": 0xc25213481f641a28, "SIMPLELCA": 0xc52b2595584e74da, "ACCU-NODEP": 0x3aa9c01f4943a647,
		}},
		{"heritages", synth.Heritages(synth.HeritagesConfig{Seed: 9, Scale: 0.1}), map[string]uint64{
			"TDH": 0x966079c70244ad8f, "TDH-FLAT": 0x67ccbebe7c4d58e6, "TDH-NOPOP": 0x9f50fd274016db35,
			"VOTE": 0xd2ce11ab28e235e0, "LCA": 0x18d9926c88374b42, "DOCS": 0xeed3ee0f257159e1,
			"ASUMS": 0x518b76b0ab9e7891, "MDC": 0xa9240ba5b01979c7, "ACCU": 0x2781cf7087ce16e4,
			"POPACCU": 0x6f819fe6863bafa4, "LFC": 0xd2f1346b21ad5e4f, "CRH": 0xd5984852c6853a02,
			"SUMS": 0xd84017cfd3cc6b14, "SIMPLELCA": 0xa8169264d467f19c, "ACCU-NODEP": 0xd0b9071d3e9c26cc,
		}},
	}
	for _, f := range fixtures {
		ds := withGoldenAnswers(f.ds)
		idx := data.NewIndex(ds)
		for _, alg := range goldenInferencers() {
			if got := resultHash(idx, alg.Infer(idx)); got != f.want[alg.Name()] {
				t.Errorf("%s/%s: hash %#x, want %#x", f.name, alg.Name(), got, f.want[alg.Name()])
			}
		}
		flat := data.NewIndex(flatInput(ds))
		if got := resultHash(flat, NewTDH().Infer(flat)); got != f.want["TDH-FLAT"] {
			t.Errorf("%s/TDH-FLAT: hash %#x, want %#x", f.name, got, f.want["TDH-FLAT"])
		}
	}
}
