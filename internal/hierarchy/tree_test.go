package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildGeo returns a small fixed geographic tree used across tests:
//
//	root ── USA ── NY ── LibertyIsland
//	 │       └──── LA
//	 └───── UK ─── London ── Westminster
func buildGeo(t *testing.T) *Tree {
	t.Helper()
	tr := New(Root)
	for _, e := range [][2]string{
		{"USA", Root}, {"UK", Root},
		{"NY", "USA"}, {"LA", "USA"},
		{"LibertyIsland", "NY"},
		{"London", "UK"}, {"Westminster", "London"},
	} {
		tr.MustAdd(e[0], e[1])
	}
	tr.Freeze()
	return tr
}

func TestTreeBasics(t *testing.T) {
	tr := buildGeo(t)
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := tr.Height(); got != 3 {
		t.Fatalf("Height = %d, want 3", got)
	}
	if tr.Root() != Root {
		t.Fatalf("Root = %q", tr.Root())
	}
	if !tr.Contains("NY") || tr.Contains("Paris") {
		t.Fatal("Contains is wrong")
	}
	if d := tr.Depth("LibertyIsland"); d != 3 {
		t.Fatalf("Depth(LibertyIsland) = %d, want 3", d)
	}
	if d := tr.Depth("nope"); d != -1 {
		t.Fatalf("Depth(unknown) = %d, want -1", d)
	}
	p, ok := tr.Parent("NY")
	if !ok || p != "USA" {
		t.Fatalf("Parent(NY) = %q, %v", p, ok)
	}
	if _, ok := tr.Parent(Root); ok {
		t.Fatal("root must have no parent")
	}
}

func TestTreeAddErrors(t *testing.T) {
	tr := New(Root)
	tr.MustAdd("a", Root)
	if err := tr.Add("a", Root); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if err := tr.Add("b", "ghost"); err == nil {
		t.Fatal("unknown parent must fail")
	}
	if err := tr.Add(Root, Root); err == nil {
		t.Fatal("re-adding root must fail")
	}
	tr.Freeze()
	if err := tr.Add("c", Root); err == nil {
		t.Fatal("frozen tree must reject Add")
	}
	// Freeze is idempotent.
	tr.Freeze()
}

func TestAncestors(t *testing.T) {
	tr := buildGeo(t)
	anc := tr.Ancestors("LibertyIsland")
	if len(anc) != 2 || anc[0] != "NY" || anc[1] != "USA" {
		t.Fatalf("Ancestors(LibertyIsland) = %v", anc)
	}
	if got := tr.Ancestors("USA"); len(got) != 0 {
		t.Fatalf("Ancestors(USA) = %v, want empty (root excluded)", got)
	}
	if got := tr.Ancestors("ghost"); got != nil {
		t.Fatalf("Ancestors(unknown) = %v, want nil", got)
	}
}

func TestIsAncestor(t *testing.T) {
	tr := buildGeo(t)
	cases := []struct {
		a, d string
		want bool
	}{
		{"USA", "NY", true},
		{"USA", "LibertyIsland", true},
		{Root, "LibertyIsland", true},
		{"NY", "USA", false},
		{"NY", "NY", false},
		{"UK", "NY", false},
		{"ghost", "NY", false},
		{"NY", "ghost", false},
	}
	for _, c := range cases {
		if got := tr.IsAncestor(c.a, c.d); got != c.want {
			t.Errorf("IsAncestor(%q, %q) = %v, want %v", c.a, c.d, got, c.want)
		}
	}
}

func TestLCAAndDistance(t *testing.T) {
	tr := buildGeo(t)
	cases := []struct {
		u, v, lca string
		dist      int
	}{
		{"NY", "LA", "USA", 2},
		{"LibertyIsland", "LA", "USA", 3},
		{"LibertyIsland", "Westminster", Root, 6},
		{"NY", "NY", "NY", 0},
		{"USA", "LibertyIsland", "USA", 2},
	}
	for _, c := range cases {
		if got := tr.LCA(c.u, c.v); got != c.lca {
			t.Errorf("LCA(%q, %q) = %q, want %q", c.u, c.v, got, c.lca)
		}
		if got := tr.Distance(c.u, c.v); got != c.dist {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.u, c.v, got, c.dist)
		}
	}
	if got := tr.Distance("NY", "ghost"); got != -1 {
		t.Fatalf("Distance to unknown = %d, want -1", got)
	}
	if got := tr.LCA("ghost", "NY"); got != "" {
		t.Fatalf("LCA with unknown = %q, want empty", got)
	}
}

func TestNodesPath(t *testing.T) {
	tr := buildGeo(t)
	if got := len(tr.Nodes()); got != 8 {
		t.Fatalf("Nodes count = %d", got)
	}
	path := tr.PathToRoot("Westminster")
	if len(path) != 4 || path[0] != "Westminster" || path[3] != Root {
		t.Fatalf("PathToRoot = %v", path)
	}
	if tr.PathToRoot("ghost") != nil {
		t.Fatal("PathToRoot(unknown) must be nil")
	}
}

func TestValidate(t *testing.T) {
	tr := buildGeo(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Corrupt the depth map and expect detection.
	tr.depth["NY"] = 7
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate must detect a depth inconsistency")
	}
}

// randomTree builds a random tree with n nodes for property tests.
func randomTree(rng *rand.Rand, n int) *Tree {
	tr := New(Root)
	nodes := []string{Root}
	for i := 0; i < n; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('A'+i/260%26))
		parent := nodes[rng.Intn(len(nodes))]
		if tr.Add(name, parent) == nil {
			nodes = append(nodes, name)
		}
	}
	tr.Freeze()
	return tr
}

// TestQuickTreeInvariants checks structural properties on random trees:
// ancestor antisymmetry, distance symmetry, LCA depth bounds, and the
// depth/ancestor-count identity.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, int(size%60)+2)
		if err := tr.Validate(); err != nil {
			t.Logf("invalid tree: %v", err)
			return false
		}
		nodes := tr.Nodes()
		for tries := 0; tries < 20; tries++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if tr.IsAncestor(u, v) && tr.IsAncestor(v, u) {
				return false // antisymmetry
			}
			if tr.Distance(u, v) != tr.Distance(v, u) {
				return false // symmetry
			}
			l := tr.LCA(u, v)
			if tr.Depth(l) > tr.Depth(u) || tr.Depth(l) > tr.Depth(v) {
				return false // LCA is above both
			}
			if l != u && u != v && tr.Depth(l) == tr.Depth(u) && tr.IsAncestor(u, v) {
				return false
			}
			// depth == number of ancestors including root
			if tr.Depth(u) != len(tr.PathToRoot(u))-1 {
				return false
			}
			// d(u,v) = depth(u)+depth(v)-2·depth(lca)
			if tr.Distance(u, v) != tr.Depth(u)+tr.Depth(v)-2*tr.Depth(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
