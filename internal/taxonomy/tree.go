// Package taxonomy implements the is-a hierarchy substrate of the paper: a
// taxonomy tree whose leaves are the items observed in transactions and whose
// internal nodes are higher-level abstractions. Level 1 holds the most
// general non-root concepts; level H (the height) holds the leaves of a
// balanced tree.
//
// The package provides construction (Builder), navigation (Parent, Children,
// AncestorAt), the two re-balancing strategies of the paper's Figure 3
// (leaf-copy extension and level truncation), a text serialization, and DOT
// export for documentation.
package taxonomy

import (
	"fmt"
	"sort"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// NoParent marks level-1 nodes, whose conceptual parent is the (excluded)
// virtual root at level 0.
const NoParent itemset.ID = -1

type node struct {
	parent   itemset.ID
	children []itemset.ID
	level    int // 1-based; depth below the virtual root
}

// Tree is an immutable taxonomy. Build one with a Builder or a parser; all
// navigation methods are safe for concurrent use.
type Tree struct {
	dict   *dict.Dictionary
	nodes  []node              // indexed by node ID; IDs not in the tree have level 0
	member []bool              // membership mask, indexed by node ID
	levels [][]itemset.ID      // levels[h] = IDs at level h (levels[0] unused)
	height int                 // deepest level
	anc    [][]itemset.ID      // anc[id][h] = ancestor of id at level h (0 entry unused)
	leafAt map[itemset.ID]bool // IDs with no children
	extend bool                // leaf-copy extension active (Figure 3 variant B)
}

// Builder accumulates parent→child edges and produces a validated Tree.
type Builder struct {
	dict  *dict.Dictionary
	edges map[itemset.ID]itemset.ID // child -> parent
	seen  map[itemset.ID]bool
}

// NewBuilder returns a Builder that assigns IDs through d. Passing nil
// creates a fresh dictionary.
func NewBuilder(d *dict.Dictionary) *Builder {
	if d == nil {
		d = dict.New()
	}
	return &Builder{
		dict:  d,
		edges: make(map[itemset.ID]itemset.ID),
		seen:  make(map[itemset.ID]bool),
	}
}

// Dict exposes the dictionary backing the builder.
func (b *Builder) Dict() *dict.Dictionary { return b.dict }

// AddRoot declares name as a level-1 node (child of the virtual root).
// Adding the same root twice is a no-op.
func (b *Builder) AddRoot(name string) itemset.ID {
	id := b.dict.ID(name)
	b.seen[id] = true
	if _, ok := b.edges[id]; !ok {
		b.edges[id] = NoParent
	}
	return id
}

// AddEdge declares child as a direct descendant of parent, creating IDs as
// needed. It returns an error if child already has a different parent.
func (b *Builder) AddEdge(parent, child string) error {
	p := b.dict.ID(parent)
	c := b.dict.ID(child)
	b.seen[p] = true
	b.seen[c] = true
	if prev, ok := b.edges[c]; ok && prev != p && prev != NoParent {
		return fmt.Errorf("taxonomy: node %q has two parents (%q and %q)",
			child, b.dict.Name(prev), parent)
	}
	b.edges[c] = p
	if _, ok := b.edges[p]; !ok {
		b.edges[p] = NoParent
	}
	return nil
}

// AddPath declares a chain of nodes from a level-1 concept down to a leaf,
// e.g. AddPath("drinks", "beer", "canned beer").
func (b *Builder) AddPath(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	b.AddRoot(names[0])
	for i := 1; i < len(names); i++ {
		if err := b.AddEdge(names[i-1], names[i]); err != nil {
			return err
		}
	}
	return nil
}

// Build validates the accumulated edges and produces the Tree. It fails on
// cycles and on empty input. The resulting tree may be unbalanced; call
// Extend (variant B) or Truncate (variant A) before mining if leaf depths
// differ.
func (b *Builder) Build() (*Tree, error) {
	if len(b.seen) == 0 {
		return nil, fmt.Errorf("taxonomy: no nodes")
	}
	n := b.dict.Len()
	t := &Tree{
		dict:   b.dict,
		nodes:  make([]node, n),
		member: make([]bool, n),
		leafAt: make(map[itemset.ID]bool),
	}
	for id := range t.nodes {
		t.nodes[id].parent = NoParent
	}
	var roots []itemset.ID
	for id := range b.seen {
		t.member[id] = true
		p := b.edges[id]
		t.nodes[id].parent = p
		if p == NoParent {
			roots = append(roots, id)
		} else {
			t.nodes[p].children = append(t.nodes[p].children, id)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("taxonomy: no level-1 nodes (cycle through every node)")
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	// Deterministic child order.
	for id := range t.nodes {
		ch := t.nodes[id].children
		sort.Slice(ch, func(i, j int) bool { return ch[i] < ch[j] })
	}
	// BFS to assign levels and detect cycles (unreached member nodes).
	t.levels = append(t.levels, nil) // level 0 unused
	frontier := roots
	level := 1
	visited := 0
	for len(frontier) > 0 {
		t.levels = append(t.levels, frontier)
		var next []itemset.ID
		for _, id := range frontier {
			t.nodes[id].level = level
			visited++
			next = append(next, t.nodes[id].children...)
		}
		frontier = next
		level++
	}
	t.height = level - 1
	if visited != len(b.seen) {
		return nil, fmt.Errorf("taxonomy: %d node(s) unreachable from level 1 (cycle)", len(b.seen)-visited)
	}
	for id, ok := range t.member {
		if ok && len(t.nodes[id].children) == 0 {
			t.leafAt[itemset.ID(id)] = true
		}
	}
	t.buildAncestorTable()
	return t, nil
}

func (t *Tree) buildAncestorTable() {
	t.anc = make([][]itemset.ID, len(t.nodes))
	for h := 1; h <= t.height; h++ {
		for _, id := range t.levels[h] {
			row := make([]itemset.ID, t.height+1)
			for i := range row {
				row[i] = NoParent
			}
			// Walk up from the node filling levels ≤ its own.
			cur := id
			for cur != NoParent {
				row[t.nodes[cur].level] = cur
				cur = t.nodes[cur].parent
			}
			if t.extend {
				// Variant B: a shallow leaf stands in for itself at all
				// deeper levels.
				for hh := t.nodes[id].level + 1; hh <= t.height; hh++ {
					row[hh] = id
				}
			}
			t.anc[id] = row
		}
	}
}

// Dict returns the dictionary shared by the tree's nodes.
func (t *Tree) Dict() *dict.Dictionary { return t.dict }

// Height returns H, the number of abstraction levels (excluding the virtual
// root).
func (t *Tree) Height() int { return t.height }

// Contains reports whether id is a node of the tree.
func (t *Tree) Contains(id itemset.ID) bool {
	return id >= 0 && int(id) < len(t.member) && t.member[id]
}

// LevelOf returns the level of id, or 0 when id is not in the tree.
func (t *Tree) LevelOf(id itemset.ID) int {
	if !t.Contains(id) {
		return 0
	}
	return t.nodes[id].level
}

// Parent returns the parent of id, or NoParent for level-1 nodes.
func (t *Tree) Parent(id itemset.ID) itemset.ID {
	if !t.Contains(id) {
		return NoParent
	}
	return t.nodes[id].parent
}

// Children returns the direct descendants of id. The returned slice is owned
// by the tree and must not be mutated.
func (t *Tree) Children(id itemset.ID) []itemset.ID {
	if !t.Contains(id) {
		return nil
	}
	return t.nodes[id].children
}

// ChildrenAt returns the nodes standing for id at level h+... one level below
// id's: its children, or — under leaf-copy extension — id itself when id is a
// leaf shallower than H. This is the expansion step of the engine's vertical
// pattern growth.
func (t *Tree) ChildrenAt(id itemset.ID) []itemset.ID {
	if !t.Contains(id) {
		return nil
	}
	ch := t.nodes[id].children
	if len(ch) == 0 && t.extend && t.nodes[id].level < t.height {
		return []itemset.ID{id}
	}
	return ch
}

// IsLeaf reports whether id has no children.
func (t *Tree) IsLeaf(id itemset.ID) bool { return t.leafAt[id] }

// Leaves returns all leaf IDs in ascending order.
func (t *Tree) Leaves() []itemset.ID {
	out := make([]itemset.ID, 0, len(t.leafAt))
	for id := range t.leafAt {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesAtLevel returns the node IDs at level h (1 ≤ h ≤ Height). Under
// leaf-copy extension, shallow leaves are included at every deeper level.
// The returned slice is freshly allocated.
func (t *Tree) NodesAtLevel(h int) []itemset.ID {
	if h < 1 || h > t.height {
		return nil
	}
	var out []itemset.ID
	out = append(out, t.levels[h]...)
	if t.extend {
		for hh := 1; hh < h; hh++ {
			for _, id := range t.levels[hh] {
				if t.leafAt[id] {
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AncestorAt returns the generalization of id at level h. For h equal to id's
// level it returns id itself. Without leaf-copy extension, asking for a level
// deeper than the node's own returns false; with extension, shallow leaves
// answer for all deeper levels.
func (t *Tree) AncestorAt(id itemset.ID, h int) (itemset.ID, bool) {
	if !t.Contains(id) || h < 1 || h > t.height {
		return NoParent, false
	}
	a := t.anc[id][h]
	if a == NoParent {
		return NoParent, false
	}
	return a, true
}

// AppendAncestors appends the level-h ancestor of every item of tx that has
// one to dst and returns the extended slice, in tx's order and with any
// duplicates kept; itemset.Canon turns it into the level-h generalization.
// Items without an ancestor at h are dropped, as AncestorAt reports them.
func (t *Tree) AppendAncestors(dst []itemset.ID, tx itemset.Set, h int) []itemset.ID {
	for _, id := range tx {
		if a, ok := t.AncestorAt(id, h); ok {
			dst = append(dst, a)
		}
	}
	return dst
}

// RootOf returns the level-1 ancestor of id.
func (t *Tree) RootOf(id itemset.ID) itemset.ID {
	a, _ := t.AncestorAt(id, 1)
	return a
}

// IsBalanced reports whether every leaf sits at level Height.
func (t *Tree) IsBalanced() bool {
	for id := range t.leafAt {
		if t.nodes[id].level != t.height {
			return false
		}
	}
	return true
}

// Extended reports whether leaf-copy extension (Figure 3 variant B) is
// active.
func (t *Tree) Extended() bool { return t.extend }

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int {
	n := 0
	for _, ok := range t.member {
		if ok {
			n++
		}
	}
	return n
}

// Name resolves a node ID to its name.
func (t *Tree) Name(id itemset.ID) string { return t.dict.Name(id) }

// FormatSet renders an itemset with node names, e.g. "{beer, diapers}".
func (t *Tree) FormatSet(s itemset.Set) string {
	out := "{"
	for i, id := range s {
		if i > 0 {
			out += ", "
		}
		out += t.dict.Name(id)
	}
	return out + "}"
}

// GeneralizeSet maps every item of a (leaf-level) itemset to its ancestor at
// level h and returns the canonical result. Items that collapse onto the same
// ancestor are merged; ok is false if any item has no ancestor at h.
func (t *Tree) GeneralizeSet(s itemset.Set, h int) (itemset.Set, bool) {
	ids := make([]itemset.ID, 0, len(s))
	for _, id := range s {
		a, ok := t.AncestorAt(id, h)
		if !ok {
			return nil, false
		}
		ids = append(ids, a)
	}
	return itemset.New(ids...), true
}

// Validate performs internal consistency checks; it is used by tests and by
// parsers after loading external files.
func (t *Tree) Validate() error {
	count := 0
	for h := 1; h <= t.height; h++ {
		for _, id := range t.levels[h] {
			count++
			if t.nodes[id].level != h {
				return fmt.Errorf("taxonomy: node %q level mismatch", t.Name(id))
			}
			p := t.nodes[id].parent
			if h == 1 && p != NoParent {
				return fmt.Errorf("taxonomy: level-1 node %q has parent", t.Name(id))
			}
			if h > 1 {
				if p == NoParent {
					return fmt.Errorf("taxonomy: node %q at level %d has no parent", t.Name(id), h)
				}
				if t.nodes[p].level != h-1 {
					return fmt.Errorf("taxonomy: parent of %q is not one level up", t.Name(id))
				}
			}
		}
	}
	if count != t.NodeCount() {
		return fmt.Errorf("taxonomy: %d nodes in levels, %d members", count, t.NodeCount())
	}
	return nil
}
