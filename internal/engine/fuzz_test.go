package engine

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
)

// FuzzAnswerValidate drives all three engines' ValidateAnswer with
// arbitrary payloads. None may panic, and whatever each accepts must
// satisfy its published contract: categorical admits only bare candidate
// values; numeric admits only finite numbers and canonicalizes the answer
// in place (idempotently); multi-truth admits only deduplicated candidate
// sets with Value as the set's head.
func FuzzAnswerValidate(f *testing.F) {
	catEng, err := New(Categorical, DefaultInferencer(Categorical), Config{})
	if err != nil {
		f.Fatal(err)
	}
	numEng, err := New(Numeric, DefaultInferencer(Numeric), Config{})
	if err != nil {
		f.Fatal(err)
	}
	mtEng, err := New(MultiTruth, DefaultInferencer(MultiTruth), Config{})
	if err != nil {
		f.Fatal(err)
	}
	catOv := data.NewIndex(geoDataset(f, 2)).View("oa")
	numOv := data.NewIndex(numDataset(f, 2)).View("na")

	f.Add("NY", "", false, 0.0)
	f.Add("nope", "", false, 0.0)
	f.Add("10", "", true, 10.5)
	f.Add("", "NY,USA", false, 0.0)
	f.Add("NY", "NY,NY,LA", false, 0.0)
	f.Add("1e999", "", false, 0.0)
	f.Add("3", "", true, math.Inf(1))
	f.Fuzz(func(t *testing.T, value, set string, hasNum bool, num float64) {
		mk := func(object string) *data.Answer {
			a := &data.Answer{Object: object, Worker: "w", Value: value}
			if set != "" {
				a.Values = strings.Split(set, ",")
			}
			if hasNum {
				n := num
				a.Num = &n
			}
			return a
		}

		if a := mk("oa"); catEng.ValidateAnswer(catOv, a) == nil {
			if len(a.Values) > 0 || a.Num != nil {
				t.Fatalf("categorical accepted a typed payload: %+v", a)
			}
			if _, ok := catOv.CI.Pos(a.Value); !ok {
				t.Fatalf("categorical accepted non-candidate %q", a.Value)
			}
		}

		if a := mk("na"); numEng.ValidateAnswer(numOv, a) == nil {
			if a.Num == nil || math.IsNaN(*a.Num) || math.IsInf(*a.Num, 0) {
				t.Fatalf("numeric accepted a non-finite number: %+v", a)
			}
			if want := strconv.FormatFloat(*a.Num, 'g', -1, 64); a.Value != want {
				t.Fatalf("numeric left Value %q, want canonical %q", a.Value, want)
			}
			b := data.Answer{Object: a.Object, Worker: a.Worker, Value: a.Value, Num: a.Num}
			if err := numEng.ValidateAnswer(numOv, &b); err != nil {
				t.Fatalf("canonicalized answer rejected on revalidation: %v", err)
			}
			if b.Value != a.Value || *b.Num != *a.Num {
				t.Fatalf("revalidation changed a canonical answer: %+v vs %+v", b, *a)
			}
		}

		if a := mk("oa"); mtEng.ValidateAnswer(catOv, a) == nil {
			if a.Num != nil {
				t.Fatalf("multi-truth accepted a numeric payload: %+v", a)
			}
			seen := map[string]bool{}
			for _, v := range a.Values {
				if seen[v] {
					t.Fatalf("multi-truth kept a duplicate in %v", a.Values)
				}
				seen[v] = true
				if _, ok := catOv.CI.Pos(v); !ok {
					t.Fatalf("multi-truth accepted non-candidate %q", v)
				}
			}
			if len(a.Values) > 0 && a.Value != a.Values[0] {
				t.Fatalf("multi-truth Value %q is not the set head of %v", a.Value, a.Values)
			}
			if _, ok := catOv.CI.Pos(a.Value); !ok {
				t.Fatalf("multi-truth accepted non-candidate head %q", a.Value)
			}
		}
	})
}
