package campaign

import (
	"net/http"
	"sort"

	"repro/internal/obs"
)

// The manager's aggregated GET /metrics: every booted campaign's registry
// (coordinator + event log instruments, see internal/server and
// internal/eventlog) scraped in one pass with a campaign label injected
// into each series, plus the manager's own registry-level gauges. Each
// campaign also serves its own unlabeled registry at
// /v1/campaigns/{id}/metrics through the data-plane proxy.

// newManagerMetrics registers the registry-level gauges: campaign counts by
// lifecycle state, evaluated at scrape time.
func newManagerMetrics(m *Manager) *obs.Registry {
	reg := obs.NewRegistry()
	for _, st := range []State{StateDraft, StateLive, StatePaused, StateClosed} {
		st := st
		reg.GaugeFunc("tdh_campaigns", "registered campaigns by lifecycle state",
			func() float64 {
				// Campaigns() copies the list under the registry lock and
				// releases it before State() takes each campaign lock, so the
				// scrape never holds both locks at once (withCampaign acquires
				// them in the opposite order).
				n := 0
				for _, c := range m.Campaigns() {
					if c.State() == st {
						n++
					}
				}
				return float64(n)
			},
			"state", string(st))
	}
	return reg
}

// handleMetrics serves the aggregated scrape. Campaign families carry the
// campaign label; manager families carry none; the merged output stays
// sorted by family name so scrapes are deterministic.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var regs []obs.LabeledRegistry
	for _, c := range m.Campaigns() {
		if srv := c.Server(); srv != nil { // drafts have no coordinator to scrape
			regs = append(regs, obs.LabeledRegistry{Value: c.ID(), Registry: srv.Metrics()})
		}
	}
	fams := append(m.metrics.Gather(), obs.MergeLabeled("campaign", regs)...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteText(w, fams)
}
