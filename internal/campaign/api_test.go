package campaign

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMethodNotAllowedEverywhere is the satellite 405 pin: every route
// answers a wrong-method request with 405 and an Allow header naming the
// accepted method(s) — the collection routes and method-scoped patterns via
// the ServeMux, the catch-all proxy via the endpointMethods table. A path
// that is in no table is 404 whatever the campaign's lifecycle state (rows
// with an empty allow) — not a draft's 409 "start first".
func TestMethodNotAllowedEverywhere(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	h := m.Handler()
	for id, state := range map[string]State{"m405": StateLive, "d405": StateDraft} {
		if rec := doReq(t, h, "POST", "/v1/campaigns",
			createBody(t, Spec{ID: id}, state, testDataset(id, 4))); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", id, rec.Code, rec.Body.String())
		}
	}

	cases := []struct {
		method, path, allow string
	}{
		// The ServeMux advertises HEAD wherever it accepts GET.
		{"DELETE", "/v1/campaigns", "GET, HEAD, POST"},
		{"PUT", "/v1/campaigns", "GET, HEAD, POST"},
		{"POST", "/v1/campaigns/m405", "DELETE, GET, HEAD"},
		{"GET", "/v1/campaigns/m405/start", "POST"},
		{"GET", "/v1/campaigns/m405/pause", "POST"},
		{"GET", "/v1/campaigns/m405/resume", "POST"},
		{"GET", "/v1/campaigns/m405/close", "POST"},
		{"POST", "/v1/campaigns/m405/task", "GET"},
		{"DELETE", "/v1/campaigns/m405/task", "GET"},
		{"GET", "/v1/campaigns/m405/answer", "POST"},
		{"GET", "/v1/campaigns/m405/objects", "POST"},
		{"DELETE", "/v1/campaigns/m405/records", "POST"},
		{"POST", "/v1/campaigns/m405/truths", "GET"},
		{"POST", "/v1/campaigns/m405/confidence", "GET"},
		{"POST", "/v1/campaigns/m405/trust", "GET"},
		{"POST", "/v1/campaigns/m405/stats", "GET"},
		{"POST", "/v1/campaigns/m405/trace", "GET"},
		{"GET", "/v1/campaigns/m405/refresh", "POST"},
		{"GET", "/v1/campaigns/d405/answer", "POST"}, // 405 outranks the draft gate
		{"GET", "/v1/campaigns/m405/bogus", ""},
		{"GET", "/v1/campaigns/d405/bogus", ""},
		{"POST", "/v1/campaigns/d405/bogus", ""},
	}
	for _, tc := range cases {
		rec := doReq(t, h, tc.method, tc.path, "")
		if tc.allow == "" {
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s %s: %d, want 404 (%s)", tc.method, tc.path, rec.Code, rec.Body.String())
			}
			continue
		}
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405 (%s)", tc.method, tc.path, rec.Code, rec.Body.String())
			continue
		}
		allow := rec.Header().Get("Allow")
		if allow == "" {
			t.Errorf("%s %s: 405 without Allow header", tc.method, tc.path)
			continue
		}
		// The mux may order multi-method Allow lists either way; compare as
		// sets.
		if !sameMethodSet(allow, tc.allow) {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

func sameMethodSet(a, b string) bool {
	parse := func(s string) map[string]bool {
		out := map[string]bool{}
		for _, m := range strings.Split(s, ",") {
			out[strings.TrimSpace(m)] = true
		}
		return out
	}
	am, bm := parse(a), parse(b)
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		if !bm[k] {
			return false
		}
	}
	return true
}

// TestListSortedAndFiltered pins GET /v1/campaigns: deterministic id order
// regardless of creation order, and the ?state= filter.
func TestListSortedAndFiltered(t *testing.T) {
	m := mustOpen(t, t.TempDir())
	defer m.Close()
	h := m.Handler()

	// Created deliberately out of id order.
	for _, tc := range []struct {
		id    string
		state State
	}{{"zeta", StateLive}, {"alpha", ""}, {"mid", StateLive}} {
		if rec := doReq(t, h, "POST", "/v1/campaigns",
			createBody(t, Spec{ID: tc.id}, tc.state, testDataset(tc.id, 3))); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", tc.id, rec.Code, rec.Body.String())
		}
	}
	if rec := doReq(t, h, "POST", "/v1/campaigns/mid/pause", ""); rec.Code != 200 {
		t.Fatalf("pause: %d", rec.Code)
	}

	list := func(query string) []string {
		t.Helper()
		rec := doReq(t, h, "GET", "/v1/campaigns"+query, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("list%s: %d: %s", query, rec.Code, rec.Body.String())
		}
		var out struct {
			Campaigns []struct {
				ID string `json:"id"`
			} `json:"campaigns"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(out.Campaigns))
		for i, c := range out.Campaigns {
			ids[i] = c.ID
		}
		return ids
	}

	if got := list(""); !equalStrings(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("list order = %v", got)
	}
	if got := list("?state=live"); !equalStrings(got, []string{"zeta"}) {
		t.Fatalf("live filter = %v", got)
	}
	if got := list("?state=draft"); !equalStrings(got, []string{"alpha"}) {
		t.Fatalf("draft filter = %v", got)
	}
	if got := list("?state=paused"); !equalStrings(got, []string{"mid"}) {
		t.Fatalf("paused filter = %v", got)
	}
	if got := list("?state=closed"); len(got) != 0 {
		t.Fatalf("closed filter = %v", got)
	}
	if rec := doReq(t, h, "GET", "/v1/campaigns?state=cooking", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad state filter: %d, want 400", rec.Code)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeleteCampaign pins the DELETE satellite: only closed campaigns can
// be deleted; deletion removes the directory and frees the id; a
// half-deleted directory (campaign.json gone, data files left by a crash
// mid-delete) is skipped at boot like any torn create.
func TestDeleteCampaign(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir)
	h := m.Handler()

	if rec := doReq(t, h, "POST", "/v1/campaigns",
		createBody(t, Spec{ID: "del"}, StateLive, testDataset("del", 3))); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
	}

	// Live and paused campaigns refuse deletion.
	if rec := doReq(t, h, "DELETE", "/v1/campaigns/del", ""); rec.Code != http.StatusConflict {
		t.Fatalf("delete live: %d, want 409", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/campaigns/del/pause", ""); rec.Code != 200 {
		t.Fatalf("pause: %d", rec.Code)
	}
	if rec := doReq(t, h, "DELETE", "/v1/campaigns/del", ""); rec.Code != http.StatusConflict {
		t.Fatalf("delete paused: %d, want 409", rec.Code)
	}
	if rec := doReq(t, h, "DELETE", "/v1/campaigns/absent", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d, want 404", rec.Code)
	}

	// Closed campaigns delete: registry entry, directory and id all freed.
	if rec := doReq(t, h, "POST", "/v1/campaigns/del/close", ""); rec.Code != 200 {
		t.Fatalf("close: %d", rec.Code)
	}
	if rec := doReq(t, h, "DELETE", "/v1/campaigns/del", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete closed: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doReq(t, h, "GET", "/v1/campaigns/del", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", rec.Code)
	}
	if _, err := os.Stat(filepath.Join(dir, campaignsDir, "del")); !os.IsNotExist(err) {
		t.Fatalf("campaign directory survived delete: %v", err)
	}
	if rec := doReq(t, h, "POST", "/v1/campaigns",
		createBody(t, Spec{ID: "del"}, "", testDataset("del", 3))); rec.Code != http.StatusCreated {
		t.Fatalf("recreate deleted id: %d: %s", rec.Code, rec.Body.String())
	}

	// Drafts have no answer history to protect: deletable without closing.
	if rec := doReq(t, h, "POST", "/v1/campaigns",
		createBody(t, Spec{ID: "stillborn"}, "", testDataset("stillborn", 3))); rec.Code != http.StatusCreated {
		t.Fatalf("create draft: %d", rec.Code)
	}
	if rec := doReq(t, h, "DELETE", "/v1/campaigns/stillborn", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete draft: %d: %s", rec.Code, rec.Body.String())
	}

	// Crash-mid-delete recovery: a directory whose campaign.json is gone
	// but whose data files remain must be skipped at boot, not fail it.
	if _, err := m.Create(Spec{ID: "half"}, testDataset("half", 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, campaignsDir, "half", metaFile)); err != nil {
		t.Fatal(err)
	}
	m2 := mustOpen(t, dir)
	defer m2.Close()
	if _, ok := m2.Get("half"); ok {
		t.Fatal("half-deleted campaign resurrected at boot")
	}
	if _, ok := m2.Get("del"); !ok {
		t.Fatal("healthy campaign lost while skipping debris")
	}
}
