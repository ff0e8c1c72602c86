package core

import (
	"slices"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// aprioriCell generates all Apriori candidates of Q(h,k) from the complete
// cell Q(h,k-1): joins of prefix-sharing frequent itemsets whose items
// descend from pairwise distinct level-1 roots, with the full subset check.
// It builds every cell of BASIC and Flipper's row 1, which has no parent row:
// there every frequent k-itemset is a candidate — which is what makes the
// zigzag's TPG check meaningful and keeps the miner complete — and the roots
// check never fires, since a level-1 item is its own root.
func (m *miner) aprioriCell(h, k int) *cell {
	c := m.sc.cell(h, k)
	if k == 2 {
		items := m.frequentItems(h)
		for i := 0; i < len(items); i++ {
			ri := m.tax.RootOf(items[i])
			for j := i + 1; j < len(items); j++ {
				if ri == m.tax.RootOf(items[j]) {
					continue
				}
				m.addCandidate(c, itemset.Set{items[i], items[j]})
			}
		}
		return c
	}
	prev := m.rows[h][k-1]
	if prev == nil || prev.frequent < k {
		return c
	}
	sets := prev.frequentSets() // lexicographic, so the join can break early
	scratch := make(itemset.Set, k-1)
	for i := 0; i < len(sets); i++ {
		if i&cancelCheckMask == 0 && m.cancelled() {
			return c
		}
		for j := i + 1; j < len(sets); j++ {
			joined, ok := itemset.Join(sets[i], sets[j])
			if !ok {
				break // sorted order: prefixes diverged for good
			}
			// The two tails must come from distinct roots; every other pair
			// was validated when the operands were generated.
			a, b := sets[i][k-2], sets[j][k-2]
			if m.tax.RootOf(a) == m.tax.RootOf(b) {
				continue
			}
			if !m.allSubsetsFrequent(prev, joined, scratch) {
				m.stats.SubsetPruned++
				continue
			}
			m.addCandidate(c, joined)
		}
	}
	return c
}

// allSubsetsFrequent checks the standard Apriori condition against a
// complete cell by trie descent — no key bytes, no map probes. The first
// two subsets are the join operands; skip them.
func (m *miner) allSubsetsFrequent(prev *cell, joined itemset.Set, scratch itemset.Set) bool {
	k := len(joined)
	for drop := 0; drop < k-2; drop++ {
		copy(scratch, joined[:drop])
		copy(scratch[drop:], joined[drop+1:])
		e := prev.store.Lookup(scratch)
		if e < 0 || prev.meta[e].infrequent {
			return false
		}
	}
	return true
}

// childCell generates the candidates of Q(h,k), h ≥ 2: the child-item
// combinations of every chain-alive parent itemset in Q(h-1,k), filtered by
// single-item frequency at level h, SIBP exclusions, and known-infrequent
// (k-1)-subsets counted in Q(h,k-1).
//
// Every generalization of a flipping pattern has a chain-alive parent, so
// this expansion is complete for the flipping-pattern search even though the
// cells it produces are subsets of all frequent itemsets: an itemset no
// flipping chain passes through is never needed. The equivalence suite
// (equivalence_test.go) pins this against BASIC's complete enumeration.
func (m *miner) childCell(h, k int) *cell {
	c := m.sc.cell(h, k)
	parentCell := m.rows[h-1][k]
	if parentCell == nil || parentCell.alive == 0 {
		return c
	}
	left := m.rows[h][k-1] // counted (h,k-1) itemsets; nil when k == 2
	excl := m.excluded[h]

	lists := make([][]itemset.ID, k)
	idx := make([]int, k)
	combo := make([]itemset.ID, k)
	cand := m.sc.candFor(k)
	scratch := make(itemset.Set, k-1)
	cancelledRun := false
	parentCell.store.Walk(func(pe int32, pItems itemset.Set) {
		// Per-parent cancellation poll; a cancelled run stops expanding and
		// lets the caller unwind (partial candidates never escape — Mine
		// returns the context error, not a result).
		if cancelledRun {
			return
		}
		if pe&int32(cancelCheckMask) == 0 && m.cancelled() {
			cancelledRun = true
			return
		}
		pm := &parentCell.meta[pe]
		if !pm.alive {
			return
		}
		for i, pid := range pItems {
			lists[i] = lists[i][:0]
			for _, ch := range m.tax.ChildrenAt(pid) {
				if m.frequent(h, ch) && !excl[ch] {
					lists[i] = append(lists[i], ch)
				}
			}
			if len(lists[i]) == 0 {
				return
			}
		}
		// Cartesian product of the child lists. Children of distinct
		// parents are distinct nodes, so each combination is a k-itemset.
		for i := range idx {
			idx[i] = 0
		}
		for {
			for i := range combo {
				combo[i] = lists[i][idx[i]]
			}
			// Children of distinct parents are distinct nodes, so the combo
			// needs only sorting, not dedup; insertion sort in the scratch
			// buffer replaces an itemset.New allocation per candidate (the
			// store copies on Insert).
			copy(cand, combo)
			for i := 1; i < k; i++ {
				for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
					cand[j], cand[j-1] = cand[j-1], cand[j]
				}
			}
			if left != nil && m.hasInfrequentSubset(left, cand, scratch) {
				m.stats.SubsetPruned++
			} else {
				m.addChildCandidate(c, cand, pm.chain, pm.label)
			}
			// Advance the mixed-radix counter.
			i := k - 1
			for i >= 0 {
				idx[i]++
				if idx[i] < len(lists[i]) {
					break
				}
				idx[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}
	})
	return c
}

// hasInfrequentSubset reports whether any (k-1)-subset of cand was counted
// in the left cell and found infrequent, by trie lookup. Subsets that were
// never generated there (possible under vertical gating) prove nothing and
// are ignored.
func (m *miner) hasInfrequentSubset(left *cell, cand itemset.Set, scratch itemset.Set) bool {
	k := len(cand)
	for drop := 0; drop < k; drop++ {
		copy(scratch, cand[:drop])
		copy(scratch[drop:], cand[drop+1:])
		e := left.store.Lookup(scratch)
		if e >= 0 && left.meta[e].infrequent {
			return true
		}
	}
	return false
}

// addCandidate registers an Apriori candidate itemset for counting.
func (m *miner) addCandidate(c *cell, items itemset.Set) {
	m.insertCandidate(c, items, -1, LabelNone)
}

// addChildCandidate registers a child-row candidate, carrying the alive
// parent's chain-arena index and label so labeling never needs the parent
// cell again (its row may be freed before this cell's chains assemble).
func (m *miner) addChildCandidate(c *cell, items itemset.Set, parentChain int32, parentLabel Label) {
	m.insertCandidate(c, items, parentChain, parentLabel)
}

func (m *miner) insertCandidate(c *cell, items itemset.Set, parentChain int32, parentLabel Label) {
	if _, added := c.store.Insert(items); !added {
		return // duplicate registration; generation never produces these
	}
	c.meta = append(c.meta, entryMeta{
		parentChain: parentChain,
		chain:       -1,
		parentLabel: parentLabel,
	})
	c.candidates++
	m.stats.CandidatesCounted++
	m.stats.addResident(1, c.k)
}

// frequentSets returns the cell's frequent itemsets in lexicographic order,
// aliasing the store's arena (valid for the cell's lifetime).
func (c *cell) frequentSets() []itemset.Set {
	out := make([]itemset.Set, 0, c.frequent)
	c.store.Walk(func(e int32, items itemset.Set) {
		if !c.meta[e].infrequent {
			out = append(out, items)
		}
	})
	return out
}

// frequentItems returns the frequent 1-items of a level in ascending ID
// order, minus SIBP-excluded ones.
func (m *miner) frequentItems(h int) []itemset.ID {
	excl := m.excluded[h]
	out := make([]itemset.ID, 0, len(m.sorted[h]))
	for _, id := range m.sorted[h] {
		if !excl[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
