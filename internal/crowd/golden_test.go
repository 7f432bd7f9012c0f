package crowd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/assign"
	"repro/internal/infer"
	"repro/internal/synth"
)

// TestRunLoopGolden pins a 10-round TDH+EAI loop to the bit: the hash over
// every round's accuracy and EAI's improvement estimate was recorded before
// the E-step's claim kernel was rewritten. A fit that moves by one ulp moves
// the estimates, and usually the tasks issued after them.
func TestRunLoopGolden(t *testing.T) {
	ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: 1, Scale: 0.05})
	tr := RunLoop(ds, infer.NewTDH(), assign.EAI{}, smallConfig(1, 10))
	h := fnv.New64a()
	var buf [8]byte
	for _, st := range tr.Rounds {
		for _, x := range []float64{st.Scores.Accuracy, st.EstImprove} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	const want = 0x8f4f64a2e85dad25
	if got := h.Sum64(); got != want {
		t.Fatalf("trace hash %#x, want %#x (final accuracy %v)", got, uint64(want), tr.Final().Accuracy)
	}
}
