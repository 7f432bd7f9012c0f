package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
)

// harness is one set-up serving system: an in-process campaign.Manager
// behind a real loopback HTTP listener, the generated inputs, and the
// client the load generator drives it with.
type harness struct {
	p    params
	in   *inputs
	dir  string
	mgr  *campaign.Manager
	srv  *http.Server
	base string
	http *http.Client
	rec  *recorder

	generateMS float64
	createMS   float64
}

// clientCount is how many connections the generator drives the server
// with: min(nproc, 4), so the generator never outnumbers the cores it
// shares with the server.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setUp generates the inputs, opens a manager on a fresh directory under
// root, serves it on loopback, creates the campaign(s) live over the API and
// waits for each one's first snapshot to be served. Its wall time is one
// setup_s sample.
func setUp(p params, root string, rec *recorder) (h *harness, err error) {
	h = &harness{p: p, rec: rec}
	defer func() {
		if err != nil {
			h.tearDown()
		}
	}()
	t0 := time.Now()
	if h.in, err = generate(p); err != nil {
		return h, err
	}
	h.generateMS = ms(time.Since(t0))
	rec.add("synth.generate", 0, t0, time.Now())

	if h.dir, err = os.MkdirTemp(root, "data-*"); err != nil {
		return h, err
	}
	if h.mgr, err = campaign.Open(h.dir, campaign.Options{}); err != nil {
		return h, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return h, err
	}
	h.srv = &http.Server{Handler: h.mgr.Handler()}
	go func() { _ = h.srv.Serve(ln) }() // returns when tearDown shuts the server down
	h.base = "http://" + ln.Addr().String()
	h.http = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clientCount() + 2, // the clients plus the poller and the set-up calls
			DisableCompression:  true,
		},
	}
	for _, c := range h.in.campaigns {
		body, err := json.Marshal(&c.create)
		if err != nil {
			return h, err
		}
		t := time.Now()
		resp, err := h.http.Post(h.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return h, err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return h, fmt.Errorf("creating campaign %s: %s: %s", c.id, resp.Status, bytes.TrimSpace(msg))
		}
		h.createMS += ms(time.Since(t))
		rec.add("campaign.create", 0, t, time.Now())
		if _, err := h.get(c, "truths"); err != nil {
			return h, err
		}
	}
	return h, nil
}

// tearDown stops the HTTP server and the manager and removes the data
// directory. Safe on a partly set-up harness.
func (h *harness) tearDown() {
	h.stopServing()
	if h.dir != "" {
		_ = os.RemoveAll(h.dir)
	}
}

// stopServing shuts the listener and the manager down (every campaign
// drains and closes its log) but keeps the data directory for the restart
// measurement.
func (h *harness) stopServing() {
	if h.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = h.srv.Shutdown(ctx)
		cancel()
		h.srv = nil
	}
	if h.http != nil {
		h.http.CloseIdleConnections()
	}
	if h.mgr != nil {
		_ = h.mgr.Close()
		h.mgr = nil
	}
}

func (h *harness) endpoint(c *campaignInput, ep string) string {
	return h.base + "/v1/campaigns/" + c.id + "/" + ep
}

// get fetches a per-campaign endpoint outside the drive and fails on any
// non-200.
func (h *harness) get(c *campaignInput, ep string) ([]byte, error) {
	resp, err := h.http.Get(h.endpoint(c, ep))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s of %s: %s: %s", ep, c.id, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// refresh forces a full refit and returns how long the client waited.
func (h *harness) refresh(c *campaignInput) (time.Duration, error) {
	t := time.Now()
	resp, err := h.http.Post(h.endpoint(c, "refresh"), "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST refresh of %s: %s: %s", c.id, resp.Status, bytes.TrimSpace(body))
	}
	return time.Since(t), nil
}

// scrapeCampaign reads one campaign's own /metrics registry.
func (h *harness) scrapeCampaign(c *campaignInput) (scrape, error) {
	body, err := h.get(c, "metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// statsPayload is the part of GET /stats the benchmark reads.
type statsPayload struct {
	Answers         int     `json:"answers"`
	Shards          int     `json:"shards"`
	ShardQueueDepth []int   `json:"shard_queue_depth"`
	PlanBuilds      int64   `json:"plan_builds"`
	PlanAdvances    int64   `json:"plan_advances"`
	PlanFallbacks   int64   `json:"plan_fallbacks"`
	Watermarks      []int64 `json:"watermark"`
}

func (h *harness) stats(c *campaignInput) (statsPayload, error) {
	var st statsPayload
	body, err := h.get(c, "stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// --- the load generator -----------------------------------------------

// visEntry is one sampled acknowledged item awaiting visibility.
type visEntry struct {
	shard int
	seq   int64
	at    time.Time
}

// campTrack is the generator's per-campaign lineage state: the sampled
// items the poller still follows, and the highest acknowledged sequence per
// shard — the drive ends when the published watermarks cover that.
type campTrack struct {
	mu      sync.Mutex
	pending []visEntry
	maxSeq  []int64
}

func (t *campTrack) acked(shard int, seq int64, sample bool, at time.Time) {
	t.mu.Lock()
	for len(t.maxSeq) <= shard {
		t.maxSeq = append(t.maxSeq, 0)
	}
	if seq > t.maxSeq[shard] {
		t.maxSeq[shard] = seq
	}
	if sample {
		t.pending = append(t.pending, visEntry{shard: shard, seq: seq, at: at})
	}
	t.mu.Unlock()
}

// resolve removes and returns the pending entries the watermarks cover, and
// reports whether every acknowledged item is now visible.
func (t *campTrack) resolve(wm []int64) (done []visEntry, covered bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.pending[:0]
	for _, e := range t.pending {
		if e.shard < len(wm) && wm[e.shard] >= e.seq {
			done = append(done, e)
		} else {
			keep = append(keep, e)
		}
	}
	t.pending = keep
	covered = true
	for sh, seq := range t.maxSeq {
		if sh >= len(wm) || wm[sh] < seq {
			covered = false
		}
	}
	return done, covered
}

func (t *campTrack) idle() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending) == 0
}

// visSampleEvery: one in four accepted answers (and every mutation) is
// followed until visible.
const visSampleEvery = 4

// samples are the per-request measurements of one drive, in milliseconds.
// Each client fills its own and they are merged afterwards.
type samples struct {
	task                         [][]float64 // per campaign
	answer, read, grow, lag      []float64
	taskDue                      []float64 // GET /task timed from when its session was due
	attempted, failed            int
	answers, mutations, sessions int
	firstFailure                 string
}

func newSamples(campaigns int) samples { return samples{task: make([][]float64, campaigns)} }

func (s *samples) merge(o *samples) {
	for i := range o.task {
		s.task[i] = append(s.task[i], o.task[i]...)
	}
	s.answer = append(s.answer, o.answer...)
	s.read = append(s.read, o.read...)
	s.grow = append(s.grow, o.grow...)
	s.lag = append(s.lag, o.lag...)
	s.taskDue = append(s.taskDue, o.taskDue...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.answers += o.answers
	s.mutations += o.mutations
	s.sessions += o.sessions
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

// driver is the state of one drive shared by the clients and the poller.
type driver struct {
	h      *harness
	tracks []*campTrack
	visCtr atomic.Uint64

	// Closed loop only.
	budget      atomic.Int64
	nextSession atomic.Int64
	// Open loop only.
	nextSlot atomic.Int64
	start    time.Time
}

// request sends one request of the drive and reads the whole response. Its
// latency runs from the moment it is sent to the last response byte; how
// late an open-loop slot started is measured separately (samples.lag, and
// samples.taskDue for the slot's first request), because on a box where the
// generator shares its cores with the server that lateness is mostly the
// generator's own wake-up delay. Any non-2xx or transport error is a failure.
func (d *driver) request(s *samples, span string, parent int, method, target string, body []byte) (resp []byte, sent time.Time, latencyMS float64, ok bool) {
	s.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	sent = time.Now()
	req, err := http.NewRequest(method, target, rd)
	if err == nil {
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var r *http.Response
		if r, err = d.h.http.Do(req); err == nil {
			resp, err = io.ReadAll(r.Body)
			r.Body.Close()
			if err == nil && r.StatusCode/100 != 2 {
				err = fmt.Errorf("%s: %s", r.Status, bytes.TrimSpace(resp))
			}
		}
	}
	end := time.Now()
	d.h.rec.add(span, parent, sent, end)
	if err != nil {
		s.failed++
		if s.firstFailure == "" {
			s.firstFailure = fmt.Sprintf("%s %s: %v", method, target, err)
		}
		return nil, sent, 0, false
	}
	return resp, sent, ms(end.Sub(sent)), true
}

type wireTask struct {
	Object string `json:"object"`
}

// ack is the lineage part of an accepted answer's or mutation's response.
type ack struct {
	Shard *int  `json:"shard"`
	Seq   int64 `json:"seq"`
}

// session is the unit every serving workload is built from: GET /task for
// one worker, then one POST /answer per returned task, the value drawn
// bench-side against gold. origin is when the session was due to start (now,
// in the closed loop); closed says whether the closed loop's answer budget
// applies. It reports how many answers were accepted.
func (d *driver) session(s *samples, camp, n int, origin time.Time, closed bool) int {
	c := d.h.in.campaigns[camp]
	w := d.h.in.workers[n%len(d.h.in.workers)]
	sid := d.h.rec.open("gen.session", 0, origin)
	defer func() { d.h.rec.close(sid, time.Now()) }()
	s.sessions++

	resp, sent, lat, ok := d.request(s, "http.task", sid, http.MethodGet,
		d.h.endpoint(c, "task")+"?worker="+url.QueryEscape(w.Name), nil)
	if !ok {
		return 0
	}
	s.task[camp] = append(s.task[camp], lat)
	s.taskDue = append(s.taskDue, lat+ms(sent.Sub(origin)))
	var tasks struct {
		Tasks []wireTask `json:"tasks"`
	}
	if err := json.Unmarshal(resp, &tasks); err != nil {
		s.failed++
		return 0
	}
	rng := sessionRNG(d.h.p.seed, camp, n)
	accepted := 0
	for _, t := range tasks.Tasks {
		body, known := c.answerBody(rng, w, t.Object)
		if !known {
			continue
		}
		if closed && d.budget.Add(-1) < 0 {
			break
		}
		resp, sent, lat, ok := d.request(s, "http.answer", sid, http.MethodPost, d.h.endpoint(c, "answer"), body)
		if !ok {
			continue
		}
		s.answer = append(s.answer, lat)
		s.answers++
		accepted++
		d.track(camp, resp, d.visCtr.Add(1)%visSampleEvery == 0, sent)
	}
	return accepted
}

// track records an acknowledged item's (shard, seq) for the poller.
func (d *driver) track(camp int, resp []byte, sample bool, at time.Time) {
	var a ack
	if json.Unmarshal(resp, &a) == nil && a.Shard != nil {
		d.tracks[camp].acked(*a.Shard, a.Seq, sample, at)
	}
}

// read is one GET /truths.
func (d *driver) read(s *samples, camp int, origin time.Time) {
	c := d.h.in.campaigns[camp]
	rid := d.h.rec.open("gen.read", 0, origin)
	defer func() { d.h.rec.close(rid, time.Now()) }()
	if _, _, lat, ok := d.request(s, "http.read", rid, http.MethodGet, d.h.endpoint(c, "truths"), nil); ok {
		s.read = append(s.read, lat)
	}
}

// grow is one growth op: POST /objects, then its POST /records. Every
// mutation is followed until visible.
func (d *driver) grow(s *samples, camp, n int, origin time.Time) {
	c := d.h.in.campaigns[camp]
	op := c.grow[n]
	sid := d.h.rec.open("gen.grow", 0, origin)
	defer func() { d.h.rec.close(sid, time.Now()) }()
	post := func(ep string, payload any) {
		body, _ := json.Marshal(payload)
		resp, sent, lat, ok := d.request(s, "http.grow", sid, http.MethodPost, d.h.endpoint(c, ep), body)
		if !ok {
			return
		}
		s.grow = append(s.grow, lat)
		s.mutations++
		d.track(camp, resp, true, sent)
	}
	post("objects", map[string]any{"object": op.Object, "candidates": op.Candidates})
	for _, r := range op.Records {
		post("records", r)
	}
}

// closedClient runs sessions back to back until the answer budget is spent.
func (d *driver) closedClient(s *samples) error {
	empty := 0
	for d.budget.Load() > 0 {
		n := int(d.nextSession.Add(1) - 1)
		if d.session(s, 0, n, time.Now(), true) > 0 {
			empty = 0
		} else if empty++; empty > 2*poolWorkers {
			return errors.New("closed loop: the campaign stopped handing out answerable tasks before the answer budget was spent")
		}
	}
	return nil
}

// openClient takes the next due slot, waits for its due time, and runs it.
func (d *driver) openClient(s *samples) {
	slots := d.h.in.slots
	for {
		i := int(d.nextSlot.Add(1) - 1)
		if i >= len(slots) {
			return
		}
		sl := slots[i]
		due := d.start.Add(sl.Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s.lag = append(s.lag, ms(time.Since(due)))
		switch sl.Kind {
		case slotSession:
			d.session(s, sl.Camp, sl.N, due, false)
		case slotRead:
			d.read(s, sl.Camp, due)
		case slotGrow:
			d.grow(s, sl.Camp, sl.N, due)
		}
	}
}

// pollCadence is how often the single poller reads /stats of each campaign
// that has items in flight.
const pollCadence = 2 * time.Millisecond

// pollResult is what the poller learned over one drive.
type pollResult struct {
	visibility    [][]float64 // ms per campaign, one per sampled item that became visible
	unresolved    int
	polls         int
	queueDepthMax int
	end           time.Time // when every acknowledged item was visible
	err           error
}

// poll follows sampled items to visibility: every pollCadence it reads
// /stats of each campaign with something in flight and resolves the entries
// the watermarks cover. Once clientsDone is closed it keeps going until the
// watermarks cover every acknowledged item — that moment ends the drive —
// or gives up after a grace period.
func (d *driver) poll(clientsDone <-chan struct{}) pollResult {
	res := pollResult{visibility: make([][]float64, len(d.tracks))}
	tick := time.NewTicker(pollCadence)
	defer tick.Stop()
	finishing := false
	var deadline time.Time
	for {
		<-tick.C
		if !finishing {
			select {
			case <-clientsDone:
				finishing = true
				deadline = time.Now().Add(60 * time.Second)
			default:
			}
		}
		allCovered := true
		for i, tr := range d.tracks {
			if !finishing && tr.idle() {
				continue
			}
			st, err := d.h.stats(d.h.in.campaigns[i])
			if err != nil {
				res.err = err
				return res
			}
			res.polls++
			now := time.Now()
			depth := 0
			for _, q := range st.ShardQueueDepth {
				depth += q
			}
			if depth > res.queueDepthMax {
				res.queueDepthMax = depth
			}
			done, covered := tr.resolve(st.Watermarks)
			for _, e := range done {
				res.visibility[i] = append(res.visibility[i], ms(now.Sub(e.at)))
			}
			if !covered {
				allCovered = false
			}
		}
		if finishing && (allCovered || time.Now().After(deadline)) {
			res.end = time.Now()
			break
		}
	}
	for _, tr := range d.tracks {
		tr.mu.Lock()
		res.unresolved += len(tr.pending)
		tr.mu.Unlock()
	}
	return res
}

// driveResult is everything measured over one drive.
type driveResult struct {
	samples
	poll      pollResult
	wall      time.Duration
	cpu       time.Duration
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

// drive runs the workload's load against the set-up harness: clientCount()
// clients plus the one visibility poller. The drive's wall time ends when
// every acknowledged item is visible in a published snapshot.
func (h *harness) drive() (driveResult, error) {
	var res driveResult
	d := &driver{h: h}
	for range h.in.campaigns {
		d.tracks = append(d.tracks, &campTrack{})
	}
	closed := h.in.answerBudget > 0
	d.budget.Store(int64(h.in.answerBudget))

	runtime.GC()
	runtime.ReadMemStats(&res.memBefore)
	cpu0 := cpuTime()
	d.start = time.Now()

	clients := clientCount()
	per := make([]samples, clients)
	for i := range per {
		per[i] = newSamples(len(h.in.campaigns))
	}
	res.samples = newSamples(len(h.in.campaigns))
	errs := make([]error, clients)
	clientsDone := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if closed {
				errs[i] = d.closedClient(&per[i])
			} else {
				d.openClient(&per[i])
			}
		}(i)
	}
	pollDone := make(chan pollResult, 1)
	go func() { pollDone <- d.poll(clientsDone) }()
	wg.Wait()
	close(clientsDone)
	res.poll = <-pollDone

	res.wall = res.poll.end.Sub(d.start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&res.memAfter)
	for i := range per {
		res.samples.merge(&per[i])
	}
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	return res, res.poll.err
}

// --- restart ------------------------------------------------------------

// reopened is what one campaign.Open of the run's directory produced.
type reopened struct {
	took     time.Duration // Open → every campaign's first GET /truths 200
	openTook time.Duration // campaign.Open alone
	truths   map[string][]byte
	replayed map[string]int
}

// reopen boots a manager from the run's data directory, fetches every
// campaign's truths through the manager's handler, and closes it again.
func (h *harness) reopen() (reopened, error) {
	r := reopened{truths: map[string][]byte{}, replayed: map[string]int{}}
	t0 := time.Now()
	mgr, err := campaign.Open(h.dir, campaign.Options{})
	if err != nil {
		return r, err
	}
	defer mgr.Close()
	r.openTook = time.Since(t0)
	h.rec.add("campaign.open", 0, t0, time.Now())
	handler := mgr.Handler()
	for _, c := range h.in.campaigns {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+c.id+"/truths", nil))
		if rr.Code != http.StatusOK {
			return r, fmt.Errorf("reopened campaign %s: GET /truths: %d: %s", c.id, rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
		}
		r.truths[c.id] = rr.Body.Bytes()
	}
	r.took = time.Since(t0)
	for _, c := range h.in.campaigns {
		got, ok := mgr.Get(c.id)
		if !ok {
			return r, fmt.Errorf("reopened manager lost campaign %s", c.id)
		}
		r.replayed[c.id] = got.Recovered().Answers
	}
	return r, nil
}

// campaignFile is a file of one campaign's on-disk layout.
func (h *harness) campaignFile(c *campaignInput, name string) string {
	return filepath.Join(h.dir, "campaigns", c.id, name)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
