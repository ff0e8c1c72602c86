package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// Anchored top-K search: given one taxonomy item X (the anchor), find the
// AnchorTopK flipping patterns whose generalization chain passes through X,
// ranked by descending flip gap. Instead of mining the full pattern set and
// filtering, the search enumerates only chains through X and counts every
// candidate exactly on the level's cached bitmap index, with the kernels
// countBitmap uses. A branch is cut only on exact knowledge — an infrequent
// set, a label that cannot continue the flip, or a gap strictly below the
// current K-th best — so the answer is exactly what filtering and ranking
// the full exact mine returns.

// ErrUnknownAnchor reports an anchored run whose Config.Anchor names no item
// in the taxonomy.
var ErrUnknownAnchor = errors.New("core: unknown anchor item")

// mineAnchored runs anchored top-K search. Materialized runs use the
// anchored DFS; streaming runs have no materialized levels to index, so
// they fall back to the exact full mine plus a chain filter.
func (m *miner) mineAnchored() ([]Pattern, error) {
	anchor, ok := m.tax.Dict().Lookup(m.cfg.Anchor)
	if !ok || !m.tax.Contains(anchor) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAnchor, m.cfg.Anchor)
	}
	la := m.tax.LevelOf(anchor)
	topK := m.cfg.AnchorTopK

	if !m.cfg.Materialize {
		var pats []Pattern
		if m.cfg.Pruning == Basic {
			pats = m.mineBasic()
		} else {
			pats = m.mineFlipper()
		}
		var kept []Pattern
		for _, p := range pats {
			if p.Chain[la-1].Items.Contains(anchor) {
				kept = append(kept, p)
			}
		}
		return rankAnchored(kept, topK), nil
	}

	a := &anchoredSearch{
		m:      m,
		anchor: anchor,
		root:   m.tax.RootOf(anchor),
		la:     la,
		topK:   topK,
		vecs:   m.sc.vecsFor(1, m.maxK)[0],
	}
	a.run()
	return rankAnchored(a.patterns, topK), nil
}

// rankAnchored orders patterns by descending gap and keeps the top K.
func rankAnchored(pats []Pattern, topK int) []Pattern {
	sortPatternsByGap(pats)
	if len(pats) > topK {
		pats = pats[:topK]
	}
	return pats
}

// anchoredSearch is the state of one anchored DFS.
type anchoredSearch struct {
	m      *miner
	anchor itemset.ID
	root   itemset.ID // the anchor's level-1 root, present in every chain
	la     int        // the anchor's own taxonomy level
	topK   int

	vecs []bitmap.Vector // exact-count scratch: one header per candidate item

	path     []LevelInfo // chain of the current DFS branch, levels 1..h
	patterns []Pattern
	gaps     []float64 // collected gaps, descending, capped at topK
}

// run enumerates every chain through the anchor: level-1 root sets
// containing the anchor's root, then vertical descent with the anchor
// position locked to the anchor's ancestor path and subtree.
func (a *anchoredSearch) run() {
	m := a.m
	if _, ok := m.freq1[1][a.root]; !ok {
		return // the anchor's own root is infrequent; no chain can exist
	}
	others := make([]itemset.ID, 0, len(m.freq1[1]))
	for id := range m.freq1[1] {
		if id != a.root {
			others = append(others, id)
		}
	}
	slices.Sort(others)
	a.extend(itemset.Set{a.root}, others, 0)
}

// extend grows the level-1 root set cur (always containing the anchor's
// root) by roots from others[idx:] in increasing ID order, so every
// superset is enumerated exactly once. Frequency is anti-monotone within a
// level: an infrequent extension closes that whole branch. Frequent sets
// keep extending regardless of label; labeled ones additionally start a
// chain and descend.
func (a *anchoredSearch) extend(cur itemset.Set, others []itemset.ID, idx int) {
	m := a.m
	if len(cur) >= m.maxK {
		return
	}
	for i := idx; i < len(others); i++ {
		if m.cancelled() {
			return
		}
		cand := cur.Insert(others[i])
		sup := a.exactSupport(cand, 1)
		if sup < m.minSup[1] {
			continue
		}
		corr := a.corrAt(cand, sup, 1)
		if label := a.labelOf(corr); label.Labeled() {
			a.path = append(a.path, LevelInfo{Level: 1, Items: cand, Support: sup, Corr: corr, Label: label})
			if m.height == 1 {
				a.emit()
			} else {
				a.descend(cand, cand.IndexOf(a.root), 1, corr, label, math.Inf(1))
			}
			a.path = a.path[:len(a.path)-1]
		}
		a.extend(cand, others, i+1)
	}
}

// descend expands an alive itemset at level h into its level-(h+1)
// candidates: the anchor position follows the anchor's ancestor path while
// above the anchor's level and its subtree below it; every other position
// fans out over taxonomy children. Options are pre-filtered by
// level-(h+1) single-item frequency (members of a frequent set are
// themselves frequent), so the cartesian product only enumerates viable
// combinations.
func (a *anchoredSearch) descend(items itemset.Set, anchorIdx, h int, corrPrev float64, labelPrev Label, gapSoFar float64) {
	m := a.m
	next := h + 1
	opts := make([][]itemset.ID, len(items))
	for i, id := range items {
		var cands []itemset.ID
		if i == anchorIdx && next <= a.la {
			if anc, ok := m.tax.AncestorAt(a.anchor, next); ok {
				cands = []itemset.ID{anc}
			}
		} else {
			cands = m.tax.ChildrenAt(id)
		}
		var keep []itemset.ID
		for _, c := range cands {
			if _, ok := m.freq1[next][c]; ok {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			return
		}
		opts[i] = keep
	}
	combo := make([]itemset.ID, len(items))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(items) {
			cand := itemset.New(combo...)
			a.visit(cand, cand.IndexOf(combo[anchorIdx]), next, corrPrev, labelPrev, gapSoFar)
			return
		}
		for _, c := range opts[pos] {
			combo[pos] = c
			walk(pos + 1)
		}
	}
	walk(0)
}

// visit judges one descent candidate at level h: exact count, frequency,
// the label the flip requires, the top-K gap floor, then recursion.
func (a *anchoredSearch) visit(cand itemset.Set, anchorIdx, h int, corrPrev float64, labelPrev Label, gapSoFar float64) {
	m := a.m
	if m.cancelled() {
		return
	}
	sup := a.exactSupport(cand, h)
	if sup < m.minSup[h] {
		return
	}
	corr := a.corrAt(cand, sup, h)
	label := a.labelOf(corr)
	if !label.Flips(labelPrev) {
		return
	}
	gap := corr - corrPrev
	if gap < 0 {
		gap = -gap
	}
	if gap > gapSoFar {
		gap = gapSoFar
	}
	// Deeper transitions only shrink the running gap, so a chain strictly
	// below the top-K floor cannot recover (ties keep going — the floor
	// pattern could lose the leaf-key tiebreak).
	if g, full := a.gapFloor(); full && gap < g {
		return
	}
	a.path = append(a.path, LevelInfo{Level: h, Items: cand, Support: sup, Corr: corr, Label: label})
	if h == m.height {
		a.emit()
	} else {
		a.descend(cand, anchorIdx, h, corr, label, gap)
	}
	a.path = a.path[:len(a.path)-1]
}

// emit turns the current DFS path into a Pattern and records its gap.
func (a *anchoredSearch) emit() {
	chain := make([]LevelInfo, len(a.path))
	copy(chain, a.path)
	p := Pattern{Leaf: chain[len(chain)-1].Items, Chain: chain}
	p.computeGap()
	a.patterns = append(a.patterns, p)
	a.noteGap(p.Gap)
}

// exactSupport counts a candidate's support: an AND+popcount over the
// level's cached bitmap index, summed over shards when the representation
// is sharded. Builds and word ops are accounted as countBitmap accounts
// them.
func (a *anchoredSearch) exactSupport(items itemset.Set, h int) int64 {
	m := a.m
	m.stats.CandidatesCounted++
	var sup int64
	for _, ix := range m.bitmapIndexes(h) {
		s, ops := ix.SupportInto(items, a.vecs)
		sup += s
		m.stats.BitmapWordOps += ops
	}
	return sup
}

// corrAt computes the exact correlation of items at level h given their
// support.
func (a *anchoredSearch) corrAt(items itemset.Set, sup int64, h int) float64 {
	m := a.m
	sups := m.sc.supsFor(len(items))
	sup1 := m.ds.sup1[h]
	for j, id := range items {
		sups[j] = sup1[id]
	}
	return m.cfg.Measure.Corr(sup, sups)
}

// labelOf labels a correlation against the run's γ and ε.
func (a *anchoredSearch) labelOf(corr float64) Label {
	switch {
	case corr >= a.m.cfg.Gamma:
		return LabelPositive
	case corr <= a.m.cfg.Epsilon:
		return LabelNegative
	}
	return LabelNone
}

// gapFloor returns the current K-th best collected gap, and whether K
// patterns have been collected at all (no floor exists before that).
func (a *anchoredSearch) gapFloor() (float64, bool) {
	if len(a.gaps) < a.topK {
		return 0, false
	}
	return a.gaps[len(a.gaps)-1], true
}

// noteGap inserts a collected gap into the descending top-K gap list.
func (a *anchoredSearch) noteGap(g float64) {
	i := len(a.gaps)
	a.gaps = append(a.gaps, g)
	for i > 0 && a.gaps[i-1] < g {
		a.gaps[i] = a.gaps[i-1]
		i--
	}
	a.gaps[i] = g
	if len(a.gaps) > a.topK {
		a.gaps = a.gaps[:a.topK]
	}
}
