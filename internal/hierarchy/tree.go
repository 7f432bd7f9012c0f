// Package hierarchy implements the value hierarchies used by hierarchical
// truth discovery: explicit trees (e.g. geographic containment) and the
// implicit hierarchy of numeric values induced by significant-figure
// rounding (Section 3.2 of the paper).
//
// A hierarchy is a rooted tree over string-valued nodes. The root is a
// synthetic "everything" node (e.g. Earth for locations); per the paper,
// claimed values never equal the root because the root carries no
// information.
package hierarchy

import (
	"fmt"
	"sort"
)

// Root is the identifier of the synthetic root node used by builders that
// do not specify their own root.
const Root = "<root>"

// Tree is an immutable-after-Freeze rooted tree over string node IDs.
// Concurrent reads are safe after Freeze; mutation is not goroutine-safe.
type Tree struct {
	root     string
	parent   map[string]string
	children map[string][]string
	depth    map[string]int
	frozen   bool
}

// New returns an empty tree rooted at root.
func New(root string) *Tree {
	return &Tree{
		root:     root,
		parent:   map[string]string{},
		children: map[string][]string{},
		depth:    map[string]int{root: 0},
	}
}

// Root returns the root node ID.
func (t *Tree) Root() string { return t.root }

// Len returns the number of nodes, including the root.
func (t *Tree) Len() int { return len(t.depth) }

// Height returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// Contains reports whether v is a node of the tree (including the root).
func (t *Tree) Contains(v string) bool {
	_, ok := t.depth[v]
	return ok
}

// Add inserts value v as a child of parent. It is an error to add a node
// twice, to use an unknown parent, or to mutate a frozen tree.
func (t *Tree) Add(v, parent string) error {
	if t.frozen {
		return fmt.Errorf("hierarchy: tree is frozen")
	}
	if v == t.root {
		return fmt.Errorf("hierarchy: cannot re-add root %q", v)
	}
	if _, dup := t.depth[v]; dup {
		return fmt.Errorf("hierarchy: duplicate node %q", v)
	}
	pd, ok := t.depth[parent]
	if !ok {
		return fmt.Errorf("hierarchy: unknown parent %q for node %q", parent, v)
	}
	t.parent[v] = parent
	t.children[parent] = append(t.children[parent], v)
	t.depth[v] = pd + 1
	return nil
}

// MustAdd is Add that panics on error; intended for builders and tests.
func (t *Tree) MustAdd(v, parent string) {
	if err := t.Add(v, parent); err != nil {
		panic(err)
	}
}

// Freeze marks the tree immutable and sorts child lists for deterministic
// iteration. Freeze is idempotent.
func (t *Tree) Freeze() {
	if t.frozen {
		return
	}
	for _, c := range t.children {
		sort.Strings(c)
	}
	t.frozen = true
}

// Parent returns the parent of v and false if v is the root or unknown.
func (t *Tree) Parent(v string) (string, bool) {
	p, ok := t.parent[v]
	return p, ok
}

// Children returns the direct children of v. The returned slice must not be
// modified.
func (t *Tree) Children(v string) []string { return t.children[v] }

// Depth returns the number of edges from the root to v, or -1 if v is not
// in the tree.
func (t *Tree) Depth(v string) int {
	d, ok := t.depth[v]
	if !ok {
		return -1
	}
	return d
}

// Ancestors returns the proper ancestors of v from parent up to but
// excluding the root, in parent-first order. Unknown nodes yield nil.
func (t *Tree) Ancestors(v string) []string {
	var out []string
	for {
		p, ok := t.parent[v]
		if !ok || p == t.root {
			return out
		}
		out = append(out, p)
		v = p
	}
}

// IsAncestor reports whether a is a proper ancestor of d. The root is an
// ancestor of every other node.
func (t *Tree) IsAncestor(a, d string) bool {
	if a == d || !t.Contains(a) || !t.Contains(d) {
		return false
	}
	da, dd := t.depth[a], t.depth[d]
	if da >= dd {
		return false
	}
	for dd > da {
		d = t.parent[d]
		dd--
	}
	return d == a
}

// LCA returns the lowest common ancestor of u and v, or "" if either node
// is unknown.
func (t *Tree) LCA(u, v string) string {
	if !t.Contains(u) || !t.Contains(v) {
		return ""
	}
	du, dv := t.depth[u], t.depth[v]
	for du > dv {
		u = t.parent[u]
		du--
	}
	for dv > du {
		v = t.parent[v]
		dv--
	}
	for u != v {
		u = t.parent[u]
		v = t.parent[v]
	}
	return u
}

// Distance returns the number of edges between u and v through their LCA,
// or -1 if either node is unknown. This is the d(v*, t) used by the
// AvgDistance evaluation measure.
func (t *Tree) Distance(u, v string) int {
	if !t.Contains(u) || !t.Contains(v) {
		return -1
	}
	l := t.LCA(u, v)
	return (t.depth[u] - t.depth[l]) + (t.depth[v] - t.depth[l])
}

// Nodes returns every node including the root in an unspecified order.
func (t *Tree) Nodes() []string {
	out := make([]string, 0, len(t.depth))
	for v := range t.depth {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// PathToRoot returns v followed by its ancestors, including the root.
func (t *Tree) PathToRoot(v string) []string {
	if !t.Contains(v) {
		return nil
	}
	out := []string{v}
	for v != t.root {
		v = t.parent[v]
		out = append(out, v)
	}
	return out
}

// Validate checks structural invariants (acyclicity is guaranteed by
// construction; this verifies depth bookkeeping and child/parent symmetry).
func (t *Tree) Validate() error {
	for v, p := range t.parent {
		if t.depth[v] != t.depth[p]+1 {
			return fmt.Errorf("hierarchy: depth invariant broken at %q", v)
		}
		found := false
		for _, c := range t.children[p] {
			if c == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("hierarchy: %q missing from children of %q", v, p)
		}
	}
	for p, cs := range t.children {
		for _, c := range cs {
			if t.parent[c] != p {
				return fmt.Errorf("hierarchy: parent/child asymmetry at %q", c)
			}
		}
	}
	return nil
}
