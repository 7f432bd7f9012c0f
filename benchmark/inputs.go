package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/data"
	"repro/internal/hierarchy"
	"repro/internal/synth"
)

// Workload sizing. Run length is set by --seconds: open loops run for that
// long, and the closed loop and the batch spend a work budget proportional
// to it (so the log a restart replays has the same size on every commit).
// The per-second constants were chosen on the reference 2-core sandbox so
// that each drive takes about --seconds there at the commit that introduced
// the benchmark; they are part of the benchmark's definition and are never
// retuned.
const (
	sessionK       = 5   // questions per GET /task
	poolWorkers    = 256 // simulated worker pool; session s uses worker s mod 256
	workerAccuracy = 0.75

	refitAnswersPerSecond = 450 // ingest_refit: closed-loop answer budget per --seconds
	publishSlotsPerSecond = 100 // ingest_publish: open-loop session slots per second
	mixedSlotsPerSecond   = 40  // mixed_tenants: open-loop slots per second, both campaigns together
	batchRoundsPerSecond  = 5   // crowd_batch: RunLoop rounds per --seconds
	batchWorkers          = 10  // crowd_batch: the paper's 10 workers x K=5

	growEvery = 32 // mixed_tenants: every 32nd mt-cat slot is a growth op, starting with the 8th
	growFirst = 8
	readEvery = 8 // mixed_tenants: every 8th remaining slot is a GET /truths
)

// params are the knobs of one run, all derived from the command line.
type params struct {
	workload string
	seed     int64
	seconds  float64
	// scale shrinks every dataset (1 = the sizes the workloads are defined
	// at); only -smoke and the self-tests run below 1.
	scale float64
}

// rotations is how often a run repeats its one-off operations after the
// drive: that many restarts, each with a throwaway set-up before it, so that
// both metrics are sampled over the whole ten seconds or so the repeats take
// and not in two bursts (the metric is the typical repeat, see typical). The
// counts are fixed per workload — many repeats of a quarter-second operation,
// few of a one-second one — so the work is the same on both sides of a
// comparison.
func (p params) rotations() int {
	if p.scale < 1 {
		return 2 // -smoke and the self-tests
	}
	switch p.workload {
	case "ingest_publish":
		return 7
	case "crowd_batch":
		return 20
	default: // ingest_refit, mixed_tenants
		return 24
	}
}

// setupsBefore of a run's set-ups come before the drive; the last of them is
// the instance that is driven.
const setupsBefore = 2

// slotKind is what an open-loop slot does.
type slotKind uint8

const (
	slotSession slotKind = iota
	slotRead
	slotGrow
)

// slot is one unit of open-loop work, due at a fixed offset from the start
// of the drive.
type slot struct {
	Due  time.Duration
	Kind slotKind
	Camp int // index into inputs.campaigns
	N    int // this slot's index among its campaign's slots of the same kind
}

// growOp is one open-world growth operation: a new object with three
// hierarchy-valid candidates and two source records claiming it.
type growOp struct {
	Object     string
	Candidates []string
	Records    []data.Record
}

// campaignInput is everything the benchmark generates for one campaign. The
// server only ever sees create (the dataset with gold stripped) and the
// requests built from the rest.
type campaignInput struct {
	id      string
	numeric bool
	create  campaign.CreateRequest
	// gold is the generated dataset with its gold standard, goldIdx its
	// index; both stay bench-side for drawing answers and scoring.
	gold    *data.Dataset
	goldIdx *data.Index
	// goldNum is the numeric gold (numeric campaigns only).
	goldNum map[string]float64
	grow    []growOp
	// grownViews and grownTruth let workers answer objects added by growth
	// ops, which goldIdx has never seen.
	grownViews map[string]*data.ObjectView
	grownTruth *data.Dataset
}

// inputs is the full generated input of one run.
type inputs struct {
	campaigns []*campaignInput
	workers   []synth.Worker
	// Closed loop: total answers to get accepted. Open loop: the schedule.
	answerBudget int
	slots        []slot
}

func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 0 {
		return v
	}
	return 1
}

// generate builds the inputs of a serving workload from the seed alone: the
// same seed gives byte-identical datasets, pool and schedule.
func generate(p params) (*inputs, error) {
	in := &inputs{
		workers: synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: p.seed, Count: poolWorkers, Pi: workerAccuracy}),
	}
	var err error
	switch p.workload {
	case "ingest_refit":
		ds := synth.Heritages(synth.HeritagesConfig{Seed: p.seed, Scale: p.scale})
		// The default policy — refit every 64 answers or 2 s — on one ingest
		// shard. With the default two shards a cycle can take in 128 answers
		// per refit, which is about what two closed-loop clients offer, so the
		// queue hovers between full and empty and the refit count of a fixed
		// budget swings by a quarter from run to run; one shard takes in 64
		// per refit, the queue stays full, and throughput is 64 ÷ refit time.
		pol := campaign.PolicySpec{Shards: 1}
		in.campaigns = []*campaignInput{categoricalCampaign("refit", ds, p.seed, pol)}
		in.answerBudget = int(refitAnswersPerSecond * p.seconds)
	case "ingest_publish":
		ds := synth.BirthPlaces(synth.BirthPlacesConfig{Seed: p.seed, Scale: 2 * p.scale})
		// Refits off (the BenchmarkShardedIngest policy): every publish is
		// the incremental fold + seal + plan advance.
		pol := campaign.PolicySpec{RefitAnswers: -1, RefitStalenessMS: -1}
		in.campaigns = []*campaignInput{categoricalCampaign("publish", ds, p.seed, pol)}
		in.slots = schedule(p, publishSlotsPerSecond, 1, nil)
	case "mixed_tenants":
		cat := categoricalCampaign("mt-cat",
			synth.Heritages(synth.HeritagesConfig{Seed: p.seed, Scale: 0.5 * p.scale}), p.seed, campaign.PolicySpec{})
		num := numericCampaign("mt-num", p)
		in.campaigns = []*campaignInput{cat, num}
		in.slots = schedule(p, mixedSlotsPerSecond, 2, cat)
	default:
		return nil, fmt.Errorf("no serving workload %q", p.workload)
	}
	for _, c := range in.campaigns {
		if c.create.Dataset, err = wireDataset(c.gold); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func categoricalCampaign(id string, ds *data.Dataset, seed int64, pol campaign.PolicySpec) *campaignInput {
	return &campaignInput{
		id:      id,
		gold:    ds,
		goldIdx: data.NewIndex(ds),
		create: campaign.CreateRequest{
			Spec:  campaign.Spec{ID: id, Inferencer: "TDH", Assigner: "EAI", K: sessionK, Seed: seed, Policy: pol},
			State: campaign.StateLive,
		},
	}
}

// numericCampaign is the open-price attribute of the synthetic stock
// quotes: 300 symbols (at scale 1) reported by 55 sources, estimated by CRH
// with ME assignment.
func numericCampaign(id string, p params) *campaignInput {
	attr := synth.Stock(synth.StockConfig{Seed: p.seed, Symbols: scaled(300, p.scale)})[1]
	ds := &data.Dataset{Name: "stock-" + attr.Name, Records: attr.Records, Truth: map[string]string{}}
	for o, v := range attr.Gold {
		ds.Truth[o] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return &campaignInput{
		id:      id,
		numeric: true,
		gold:    ds,
		goldIdx: data.NewIndex(ds),
		goldNum: attr.Gold,
		create: campaign.CreateRequest{
			Spec: campaign.Spec{ID: id, TruthModel: "numeric", Inferencer: "CRH", Assigner: "ME",
				K: sessionK, Seed: p.seed},
			State: campaign.StateLive,
		},
	}
}

// wireDataset encodes a dataset for POST /v1/campaigns with the gold
// standard stripped: with gold present every /stats poll would score all
// objects server-side, and the 2 ms visibility poller would measure itself.
func wireDataset(ds *data.Dataset) ([]byte, error) {
	bare := *ds
	bare.Truth = map[string]string{}
	var buf bytes.Buffer
	if err := data.Write(&buf, &bare); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// schedule lays out the open-loop slots: one every 1/rate seconds for the
// length of the run, alternating over nCamps campaigns. Of each campaign's
// own slots, every growEvery-th on the growing campaign (from the
// growFirst-th on, so even a one-second run grows) is a growth op and every
// readEvery-th of the rest is a read (only when there is more than
// one campaign: the single-campaign open loop is pure ingest); all others
// are sessions. The seed draws the growth ops' objects, candidates and
// records.
func schedule(p params, rate float64, nCamps int, growing *campaignInput) []slot {
	n := int(rate * p.seconds)
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(p.seed + 909))
	var values []string
	if growing != nil {
		values = valuePool(growing.gold, 256)
		growing.grownViews = map[string]*data.ObjectView{}
		growing.grownTruth = &data.Dataset{Truth: map[string]string{}, H: growing.gold.H}
	}
	own := make([]int, nCamps)          // slots seen per campaign
	rest := make([]int, nCamps)         // non-growth slots seen per campaign
	kindCount := make([][3]int, nCamps) // slots emitted per campaign and kind
	out := make([]slot, 0, n)
	for i := 0; i < n; i++ {
		c := i % nCamps
		kind := slotSession
		own[c]++
		switch {
		case growing != nil && c == 0 && own[c]%growEvery == growFirst:
			kind = slotGrow
		case nCamps > 1:
			rest[c]++
			if rest[c]%readEvery == 0 {
				kind = slotRead
			}
		}
		s := slot{Due: time.Duration(i) * interval, Kind: kind, Camp: c, N: kindCount[c][kind]}
		kindCount[c][kind]++
		if kind == slotGrow {
			growing.grow = append(growing.grow, newGrowOp(rng, growing, values, s.N))
		}
		out = append(out, s)
	}
	return out
}

// valuePool collects distinct record values of a dataset — hierarchy nodes
// by construction — to draw growth-op candidates from.
func valuePool(ds *data.Dataset, max int) []string {
	seen := map[string]bool{}
	var out []string
	for _, rec := range ds.Records {
		if !seen[rec.Value] {
			seen[rec.Value] = true
			if out = append(out, rec.Value); len(out) >= max {
				break
			}
		}
	}
	return out
}

func newGrowOp(rng *rand.Rand, c *campaignInput, values []string, n int) growOp {
	op := growOp{Object: fmt.Sprintf("grown:%04d", n)}
	seen := map[string]bool{}
	for len(op.Candidates) < 3 && len(seen) < len(values) {
		v := values[rng.Intn(len(values))]
		if !seen[v] {
			seen[v] = true
			op.Candidates = append(op.Candidates, v)
		}
	}
	// The first candidate is the object's truth; two new sources claim it
	// and one other candidate.
	for i := 0; i < 2 && i < len(op.Candidates); i++ {
		op.Records = append(op.Records, data.Record{
			Object: op.Object, Source: fmt.Sprintf("grown-src-%d", i), Value: op.Candidates[i],
		})
	}
	c.grownTruth.Truth[op.Object] = op.Candidates[0]
	c.grownViews[op.Object] = &data.ObjectView{
		Object: op.Object,
		CI:     hierarchy.NewCandidateIndex(c.gold.H, op.Candidates),
	}
	return op
}

// answerFor draws the value worker w gives for object obj of campaign c:
// synth.Worker.Answer against bench-side gold for categorical campaigns, a
// 1 % noisy reading of the gold number for numeric ones. ok is false for an
// object the benchmark has no gold for (it never generated it).
func (c *campaignInput) answerFor(rng *rand.Rand, w synth.Worker, obj string) (value string, num float64, ok bool) {
	if c.numeric {
		g, found := c.goldNum[obj]
		if !found {
			return "", 0, false
		}
		return "", g * (1 + 0.01*rng.NormFloat64()), true
	}
	if ov := c.goldIdx.View(obj); ov != nil {
		return w.Answer(rng, c.gold, ov), 0, true
	}
	if ov := c.grownViews[obj]; ov != nil {
		return w.Answer(rng, c.grownTruth, ov), 0, true
	}
	return "", 0, false
}

// answerBody is the POST /answer body for worker w's answer to obj.
func (c *campaignInput) answerBody(rng *rand.Rand, w synth.Worker, obj string) (body []byte, ok bool) {
	value, num, ok := c.answerFor(rng, w, obj)
	if !ok {
		return nil, false
	}
	if c.numeric {
		body, _ = json.Marshal(map[string]any{"worker": w.Name, "object": obj, "num": num})
	} else {
		body, _ = json.Marshal(map[string]string{"worker": w.Name, "object": obj, "value": value})
	}
	return body, true
}

// sessionRNG seeds the answer draws of one session from the run seed and
// the session's identity, so the values do not depend on how the clients
// interleave.
func sessionRNG(seed int64, camp, session int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(camp)*500_009 + int64(session)))
}
