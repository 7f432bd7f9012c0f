package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/numeric"
)

// numericEngine runs a numeric.Estimator (CRH / CATD / MEAN / MEDIAN /
// VOTE) over the campaign's source records plus its worker answers, the
// latter claimed by pseudo-sources named "w:"+worker — the same
// provider-unification convention internal/multitruth uses — so
// source-weighting estimators weigh workers exactly like sources.
//
// Fit parses every claim once, into one dense numeric.Table keyed by the
// index's object IDs, runs the estimator over it, and keeps the table's
// object rows (under the fitted weights) as the claim rows. Between fits the
// engine folds: an estimate is object-local GIVEN the provider weights, so
// an accepted answer appends one claim to its object's claim row and
// re-estimates that object alone (numeric.Estimator.Local) with the weights
// frozen at the last Fit. That is exact for MEAN / MEDIAN / VOTE, which
// have no weights — those never publish a stale estimate — while CRH / CATD
// publish stale WEIGHTS for at most one refit interval (RefitPolicy's
// refit_staleness_ms; and refit_answers, the floor of a count threshold
// that doubles only after a refit that flipped no truth — with staleness
// disabled it keeps doubling while refits flip nothing — but a truth here
// is the formatted estimate, so a refit that moves one keeps the floor):
// the weight update waits for the next Fit, and a provider that fit never
// saw weighs the median fitted weight until then.
type numericEngine struct {
	est numeric.Estimator
}

// NewNumeric wraps a numeric estimator as an Engine.
func NewNumeric(est numeric.Estimator) Engine {
	return &numericEngine{est: est}
}

func (e *numericEngine) Model() TruthModel { return Numeric }
func (e *numericEngine) Name() string      { return e.est.Name() }

// workerPrefix marks the pseudo-source a worker's answers are claimed by.
const workerPrefix = "w:"

// numState is one numeric round, dense by object ID of idx. It is its own
// result's Rows (infer.Dense) and Model: nothing name-keyed is built per
// round — a fold copies three slice-header arrays and replaces the touched
// entries — and the /truths map is materialised on first use.
type numState struct {
	idx *data.Index
	// claims[oid] is the object's parsed claims in dataset order (records,
	// then answers: the order the estimators sum in), each carrying its
	// provider's frozen weight; est[oid] is the estimate (NaN: no parsable
	// claim) and rows[oid] the assigner-facing support row.
	claims [][]numeric.Claim
	est    []float64
	rows   [][]float64
	// weights are the provider weights of the last Fit (nil for a weightless
	// estimator) and unseen the median of them, which a provider that fit
	// never saw weighs.
	weights map[string]float64
	unseen  float64
	res     *infer.Result

	estimatesOnce sync.Once
	estimates     map[string]float64
}

func (st *numState) Res() *infer.Result { return st.res }

// Index, Row and TruthAt implement infer.Dense.
func (st *numState) Index() *data.Index    { return st.idx }
func (st *numState) Row(oid int) []float64 { return st.rows[oid] }

func (st *numState) TruthAt(oid int) string {
	if math.IsNaN(st.est[oid]) {
		return ""
	}
	return strconv.FormatFloat(st.est[oid], 'g', -1, 64)
}

func (st *numState) Truths() any { return st.estimateMap() }

// estimateMap is the name-keyed estimates, built at most once per state.
//
//tdh:mutator fills the lazily materialised estimates exactly once behind sync.Once; no reader can observe a partial fill
func (st *numState) estimateMap() map[string]float64 {
	st.estimatesOnce.Do(func() {
		st.estimates = make(map[string]float64, len(st.est))
		for oid, v := range st.est {
			if !math.IsNaN(v) {
				st.estimates[st.idx.Objects[oid]] = v
			}
		}
	})
	return st.estimates
}

// Confidence reports the estimate alongside the per-candidate support
// weights the assigners rank by.
func (st *numState) Confidence(oid int) any {
	out := map[string]any{"support": supportOf(st.res, oid)}
	if !math.IsNaN(st.est[oid]) {
		out["estimate"] = st.est[oid]
	}
	return out
}

func (st *numState) Quality(ds *data.Dataset, idx *data.Index) map[string]float64 {
	gold := make(map[string]float64, len(ds.Truth))
	for o, v := range ds.Truth {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			gold[o] = f
		}
	}
	if len(gold) == 0 {
		return nil
	}
	sc := eval.EvaluateNumeric(gold, st.estimateMap())
	return map[string]float64{"mae": sc.MAE, "re": sc.RE}
}

// newNumState sizes a state for idx under the given provider weights and
// publishes them as trust: sources by name, "w:" pseudo-sources as workers,
// scaled to [0,1] by the largest weight (CRH floors its weights above 0 and
// CATD's are positive at every claim count; a weight that is not positive
// would read 0). Weightless estimators publish nothing. Claims, estimates
// and support rows are the caller's to fill.
func newNumState(idx *data.Index, weights map[string]float64) *numState {
	n := len(idx.Objects)
	st := &numState{idx: idx, weights: weights,
		claims: make([][]numeric.Claim, n), est: make([]float64, n), rows: make([][]float64, n),
		res: &infer.Result{SourceTrust: map[string]float64{}, WorkerTrust: map[string]float64{}}}
	st.res.Rows, st.res.Model = st, st
	if len(weights) == 0 {
		return st
	}
	ws := make([]float64, 0, len(weights))
	for _, w := range weights {
		ws = append(ws, w)
	}
	sort.Float64s(ws)
	st.unseen = ws[len(ws)/2]
	top := ws[len(ws)-1]
	for p, w := range weights {
		t := 0.0
		if w > 0 && top > 0 {
			t = w / top
		}
		if worker, ok := strings.CutPrefix(p, workerPrefix); ok {
			st.res.WorkerTrust[worker] = t
		} else {
			st.res.SourceTrust[p] = t
		}
	}
	return st
}

// fork is the copy a fold or a growth writes into: the per-object arrays
// resized to idx (header copies; the rows themselves are shared until
// replaced), the frozen weights and the trust maps carried over.
func (st *numState) fork(idx *data.Index) *numState {
	n := len(idx.Objects)
	next := &numState{idx: idx, weights: st.weights, unseen: st.unseen,
		claims: make([][]numeric.Claim, n), est: make([]float64, n), rows: make([][]float64, n)}
	copy(next.claims, st.claims)
	copy(next.est, st.est)
	copy(next.rows, st.rows)
	next.res = &infer.Result{Rows: next, SourceTrust: st.res.SourceTrust, WorkerTrust: st.res.WorkerTrust, Model: next}
	return next
}

// addClaim appends one claim to an object's row under its provider's frozen
// weight.
func (st *numState) addClaim(oid int, v float64, provider string) {
	w, ok := st.weights[provider]
	if !ok {
		w = st.unseen
	}
	st.claims[oid] = append(st.claims[oid], numeric.Claim{V: v, W: w})
}

// foldClaim is one answer's fold: append its claim — copy-on-write, since
// the row is shared with the published state: capped at its length, the
// append reallocates instead of writing it — and re-estimate the object.
func (st *numState) foldClaim(est numeric.Estimator, oid int, v float64, provider string) {
	row := st.claims[oid]
	st.claims[oid] = row[:len(row):len(row)]
	st.addClaim(oid, v, provider)
	st.setEstimate(oid, est.Local(st.claims[oid]))
}

// parseClaims rebuilds the claim rows of the listed objects from the working
// dataset's parsable claims, in dataset order.
func (st *numState) parseClaims(oids []int) {
	only := make([]bool, len(st.claims))
	for _, oid := range oids {
		only[oid] = true
		st.claims[oid] = nil
	}
	eachClaim(st.idx, only, func(oid int, provider string, v float64) { st.addClaim(oid, v, provider) })
}

// eachClaim calls f on every parsable claim of idx's dataset on an object of
// idx (on the objects only marks, when only is not nil), in dataset order:
// records, then answers as claims of "w:"+worker.
func eachClaim(idx *data.Index, only []bool, f func(oid int, provider string, v float64)) {
	ds := idx.DS
	for i := range ds.Records {
		r := &ds.Records[i]
		oid, ok := idx.ObjectID(r.Object)
		if !ok || only != nil && !only[oid] {
			continue
		}
		if v, err := strconv.ParseFloat(r.Value, 64); err == nil && finite(v) {
			f(oid, r.Source, v)
		}
	}
	for i := range ds.Answers {
		a := &ds.Answers[i]
		oid, ok := idx.ObjectID(a.Object)
		if !ok || only != nil && !only[oid] {
			continue
		}
		if v, ok := answerValue(a); ok {
			f(oid, workerPrefix+a.Worker, v)
		}
	}
}

// claimTable fills every object's claim row from t's object row, each claim
// under its provider's weight w[pid] (0 when w is nil, as a weightless
// estimator's unseen provider weighs). The rows share one slab, each capped
// at its length so a fold's append copies it.
func (st *numState) claimTable(t *numeric.Table, w []float64) {
	n := 0
	for oid := range st.claims {
		n += len(t.Object(oid))
	}
	slab := make([]numeric.Claim, 0, n)
	for oid := range st.claims {
		start := len(slab)
		for _, c := range t.Object(oid) {
			cl := numeric.Claim{V: c.V}
			if w != nil {
				cl.W = w[c.ID]
			}
			slab = append(slab, cl)
		}
		if len(slab) > start {
			st.claims[oid] = slab[start:len(slab):len(slab)]
		}
	}
}

// setEstimate stores object oid's estimate and derives its support row: mass
// spread over the object's candidate values by inverse distance to the
// estimate, so ME's entropy ranking prefers objects whose claimed values
// disagree most with (and among) the estimate. Unparsable candidates get
// zero mass; an object with no estimate reads uniform.
func (st *numState) setEstimate(oid int, v float64) {
	st.est[oid] = v
	cands := st.idx.ViewAt(oid).CI.Values
	row := make([]float64, len(cands))
	if !math.IsNaN(v) {
		for i, cand := range cands {
			if c, err := strconv.ParseFloat(cand, 64); err == nil && finite(c) {
				row[i] = 1.0 / (1.0 + math.Abs(c-v))
			}
		}
	}
	normalize(row)
	st.rows[oid] = row
}

// Fit parses the working dataset once into one numeric.Table (eachClaim's
// order), runs the estimator over it, and keeps the table's object rows,
// under the fitted weights, as the claim rows the folds that follow extend.
func (e *numericEngine) Fit(idx *data.Index) State {
	ds := idx.DS
	b := numeric.NewTableBuilder(len(idx.Objects), len(ds.Records)+len(ds.Answers))
	eachClaim(idx, nil, b.Add)
	t := b.Table()
	truth, w := e.est.Fit(t)
	var weights map[string]float64
	if w != nil {
		weights = make(map[string]float64, len(w))
		for p, name := range t.Providers() {
			weights[name] = w[p]
		}
	}
	st := newNumState(idx, weights)
	st.claimTable(t, w)
	for oid, v := range truth {
		st.setEstimate(oid, v)
	}
	return st
}

func (e *numericEngine) ApplyAnswers(st State, idx *data.Index, answers []data.Answer) (State, bool) {
	return applyAnswers(e, st, idx, answers)
}

// NewEpoch implements EpochFolder: an epoch folds into a fork of the state.
func (e *numericEngine) NewEpoch(st State, idx *data.Index) (Epoch, bool) {
	ns := st.(*numState)
	if ns.idx != idx {
		return nil, false // not the index this state is shaped by
	}
	return &numEpoch{est: e.est, st: ns.fork(idx)}, true
}

// numEpoch folds answers into one forked state.
type numEpoch struct {
	est numeric.Estimator
	st  *numState
	touchedIDs
}

func (ep *numEpoch) Fold(answers []data.Answer) {
	for i := range answers {
		a := &answers[i]
		oid, ok := ep.st.idx.ObjectID(a.Object)
		if !ok {
			continue // object unknown to the current index; refit will pick it up
		}
		v, ok := answerValue(a)
		if !ok {
			continue
		}
		ep.st.foldClaim(ep.est, oid, v, workerPrefix+a.Worker)
		ep.ids = append(ep.ids, oid)
	}
}

func (ep *numEpoch) Seal() State { return ep.st }

// Grow rebuilds the touched objects' claim rows from the extended dataset
// (one filtered pass, the same order Fit parses in) and re-estimates them
// under the frozen weights; every other object carries over.
func (e *numericEngine) Grow(st State, idx *data.Index, touched []int) (State, bool) {
	next := st.(*numState).fork(idx)
	next.parseClaims(touched)
	for _, oid := range touched {
		next.setEstimate(oid, e.est.Local(next.claims[oid])) // NaN when it has no parsable claim
	}
	return next, true
}

// answerValue is an answer's numeric payload: Num when set, else Value
// parsed; ok=false when it is not a finite number.
func answerValue(a *data.Answer) (float64, bool) {
	if a.Num != nil {
		return *a.Num, finite(*a.Num)
	}
	v, err := strconv.ParseFloat(a.Value, 64)
	return v, err == nil && finite(v)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ValidateAnswer requires a parsable finite number — any number, not just a
// previously claimed candidate: a numeric truth lives on the real line, not
// in a candidate set. The answer is canonicalized in place: Num is parsed
// from Value when absent, and Value is rewritten to Num's canonical decimal
// form so dedup and claim tables agree on one spelling.
func (e *numericEngine) ValidateAnswer(ov *data.ObjectView, a *data.Answer) error {
	if len(a.Values) > 0 {
		return fmt.Errorf("numeric campaign takes a single number, not a value set")
	}
	if a.Num == nil {
		v, err := strconv.ParseFloat(a.Value, 64)
		if err != nil {
			return fmt.Errorf("value %q is not a number", a.Value)
		}
		a.Num = &v
	}
	if math.IsNaN(*a.Num) || math.IsInf(*a.Num, 0) {
		return fmt.Errorf("numeric answer must be finite")
	}
	a.Value = strconv.FormatFloat(*a.Num, 'g', -1, 64)
	return nil
}
