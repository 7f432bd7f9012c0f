package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/hierarchy"
	"repro/internal/synth"
)

// fitHash is an FNV-64a hash over the bits of everything a fit produces: μ,
// N and D of every object, φ, ψ, the evaluation count and the final delta.
// Two fits hash equal only if they agree to the last bit.
func fitHash(m *Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for oid := 0; oid < m.NumObjects(); oid++ {
		for _, x := range m.MuAt(oid) {
			put(x)
		}
		for _, x := range m.NAt(oid) {
			put(x)
		}
		put(m.DAt(oid))
	}
	for _, t := range m.Phi {
		put(t[0])
		put(t[1])
		put(t[2])
	}
	for _, t := range m.Psi {
		put(t[0])
		put(t[1])
		put(t[2])
	}
	put(float64(m.Iterations))
	put(m.FinalDelta)
	return h.Sum64()
}

// wideDataset has one hierarchical object with 260 candidates — above the
// index's dense-table cap, so its claims take the per-truth fallbacks of
// the relationship and popularity tables — plus small objects that give its
// sources and workers further claims. The tree is root → 20 regions → 13
// cities each; the wide object's candidates are every region and 12 cities
// of each.
func wideDataset() *data.Dataset {
	tr := hierarchy.New(hierarchy.Root)
	region := func(r int) string { return fmt.Sprintf("r%02d", r) }
	city := func(r, c int) string { return fmt.Sprintf("r%02d-c%02d", r, c) }
	for r := 0; r < 20; r++ {
		tr.MustAdd(region(r), hierarchy.Root)
		for c := 0; c < 13; c++ {
			tr.MustAdd(city(r, c), region(r))
		}
	}
	tr.Freeze()
	ds := &data.Dataset{Name: "wide", Truth: map[string]string{}, H: tr, Candidates: map[string][]string{}}
	for r := 0; r < 20; r++ {
		ds.Candidates["wide"] = append(ds.Candidates["wide"], region(r))
		for c := 0; c < 12; c++ {
			ds.Candidates["wide"] = append(ds.Candidates["wide"], city(r, c))
		}
	}
	claims := []string{city(0, 0), city(0, 0), region(0), city(0, 1), city(3, 5), region(3), city(0, 0), city(7, 2)}
	for s, v := range claims {
		ds.Records = append(ds.Records, data.Record{Object: "wide", Source: fmt.Sprintf("s%d", s), Value: v})
	}
	ds.Truth["wide"] = city(0, 0)
	for o := 0; o < 12; o++ {
		name := fmt.Sprintf("o%02d", o)
		r := o % 20
		ds.Truth[name] = city(r, 1)
		for s := 0; s < len(claims); s++ {
			v := city(r, 1)
			switch (o + s) % 4 {
			case 1:
				v = region(r)
			case 2:
				v = city(r, (s%3)+2)
			}
			ds.Records = append(ds.Records, data.Record{Object: name, Source: fmt.Sprintf("s%d", s), Value: v})
		}
	}
	for w, v := range []string{city(0, 0), region(0), city(5, 1)} {
		ds.Answers = append(ds.Answers, data.Answer{Object: "wide", Worker: fmt.Sprintf("w%d", w), Value: v})
		ds.Answers = append(ds.Answers, data.Answer{Object: fmt.Sprintf("o%02d", w), Worker: fmt.Sprintf("w%d", w), Value: city(w, 1)})
	}
	return ds
}

// TestRunGolden pins core.Run to the bit on every fixture: the hash of each
// fit was recorded before the E-step's claim kernel was rewritten, so any
// change to the order or the form of a floating-point operation in the fit
// fails here. Every fixture runs on 1 and 4 goroutines, whatever its size,
// which must agree.
func TestRunGolden(t *testing.T) {
	if ov := data.NewIndex(wideDataset()).View("wide"); ov.CI.NumValues() != 260 || !ov.CI.Hier || ov.RelRow(0) != nil {
		t.Fatalf("wide fixture: %d candidates, hierarchical %v, dense tables %v; want 260, true, false",
			ov.CI.NumValues(), ov.CI.Hier, ov.RelRow(0) != nil)
	}
	flat := DefaultOptions()
	flat.FlatModel = true
	uniform := DefaultOptions()
	uniform.UniformWorkerErrors = true
	bp := func() *data.Dataset { return synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 11, Scale: 0.03}) }
	bpAns := func() *data.Dataset {
		return withTruthAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02}))
	}
	her := func() *data.Dataset { return synth.Heritages(synth.HeritagesConfig{Seed: 11, Scale: 0.1}) }
	herAns := func() *data.Dataset {
		return withTruthAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05}))
	}
	for _, c := range []struct {
		name string
		ds   func() *data.Dataset
		opt  Options
		want uint64
	}{
		{"birthplaces", bp, DefaultOptions(), 0x60435dbda2940f9d},
		{"birthplaces+answers", bpAns, DefaultOptions(), 0xd41181b348224f13},
		{"birthplaces+answers/flat", bpAns, flat, 0x6fa301b1504c725c},
		{"birthplaces+answers/uniform", bpAns, uniform, 0x4dcde2c245998a4c},
		{"heritages", her, DefaultOptions(), 0xba877298ca6ba9},
		{"heritages+answers", herAns, DefaultOptions(), 0x90b1d89684aee200},
		{"heritages+answers/flat", herAns, flat, 0x91c6086fba476150},
		{"heritages+answers/uniform", herAns, uniform, 0xc1b1b94a70ec0d5b},
		{"wide", wideDataset, DefaultOptions(), 0x546cd6d5e3b3413},
		{"wide/flat", wideDataset, flat, 0x86aea1c6e745e61d},
		{"wide/uniform", wideDataset, uniform, 0xf7d4167cd8ee153a},
	} {
		for _, goroutines := range []int{1, 4} {
			m := run(data.NewIndex(c.ds()), c.opt, goroutines)
			if got := fitHash(m); got != c.want {
				t.Errorf("%s, %d goroutines: fit hash %#x, want %#x (%d evaluations)", c.name, goroutines, got, c.want, m.Iterations)
			}
		}
	}
}

// TestGrowGolden pins Model.Grow's local step the same way: the hashes of
// a grown model were recorded before the claim kernel replaced Grow's own
// copy of the claim loop.
func TestGrowGolden(t *testing.T) {
	for _, c := range []struct {
		ds   *data.Dataset
		want uint64
	}{
		{withTruthAnswers(synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 5, Scale: 0.02})), 0xd249c5f3aebc605d},
		{withTruthAnswers(synth.Heritages(synth.HeritagesConfig{Seed: 5, Scale: 0.05})), 0xac109341d74bbe1d},
	} {
		base, mut := splitForGrowth(c.ds)
		baseIdx := data.NewIndex(base)
		grown, touched := baseIdx.Extend(applyMutation(base, mut), mut)
		if got := fitHash(Run(baseIdx, DefaultOptions()).Grow(grown, touched)); got != c.want {
			t.Errorf("%s: grown model hash %#x, want %#x", c.ds.Name, got, c.want)
		}
	}
}
