package core

// The BASIC baseline: a complete per-level Apriori with support-only
// pruning, representing the prior-art pipeline the paper compares against —
// "computing all frequent patterns before ranking the correlations". Every
// cell of the search table is fully populated (subject only to support and
// the distinct-level-1-roots requirement that defines the problem), every
// frequent itemset is retained in memory until the end, and flipping chains
// are assembled in a post-processing pass.

func (m *miner) mineBasic() []Pattern {
	for h := 1; h <= m.height; h++ {
		for k := 2; k <= m.colBound(h); k++ {
			if m.cancelled() {
				return nil
			}
			c := m.aprioriCell(h, k)
			m.finishBasicCell(c)
			m.rows[h][k] = c
			if c.frequent < k+1 {
				// Fewer frequent k-itemsets than needed to join a single
				// (k+1)-candidate's subsets; the row is done.
				break
			}
		}
	}
	return m.collectBasic()
}

// finishBasicCell counts and labels a BASIC cell. Unlike finishCell it keeps
// no chain records (chains are assembled afterwards) and — crucially for
// the memory comparison — never frees anything.
func (m *miner) finishBasicCell(c *cell) {
	if c.candidates > 0 {
		m.count(c)
	}
	thr := m.minSup[c.h]
	for i := range c.meta {
		e := &c.meta[i]
		sup := c.store.Sup[i]
		if sup < thr {
			e.infrequent = true
			// BASIC keeps all candidates resident until the run ends, so no
			// dropResident here: the paper's baseline stored every counted
			// candidate (40 GB on its server) until post-processing.
			continue
		}
		c.frequent++
		m.stats.FrequentItemsets++
		e.corr, e.label = m.label(c.store.Items(int32(i)), sup, c.h)
		switch e.label {
		case LabelPositive:
			c.positive++
			m.stats.PositiveItemsets++
		case LabelNegative:
			c.negative++
			m.stats.NegativeItemsets++
		}
	}
	if m.cfg.KeepCellStats {
		m.stats.Cells = append(m.stats.Cells, CellStat{
			H: c.h, K: c.k, Candidates: c.candidates,
			Frequent: c.frequent, Positive: c.positive, Negative: c.negative,
		})
	}
}

// collectBasic post-processes the fully populated table: a leaf itemset is a
// flipping pattern when its generalization at every level is frequent,
// labeled, and alternates signs. Generalization lookups descend the row's
// trie instead of building key strings.
func (m *miner) collectBasic() []Pattern {
	var out []Pattern
	for k, leafCell := range m.rows[m.height] {
		if leafCell == nil {
			continue
		}
		for i := range leafCell.meta {
			e := &leafCell.meta[i]
			if e.infrequent || !e.label.Labeled() {
				continue
			}
			leafItems := leafCell.store.Items(int32(i))
			chain := make([]LevelInfo, m.height)
			// Patterns outlive the run, but the store arenas are pooled and
			// reused by the next Mine on this engine — clone what escapes.
			chain[m.height-1] = LevelInfo{
				Level: m.height, Items: leafItems.Clone(), Support: leafCell.store.Sup[i],
				Corr: e.corr, Label: e.label,
			}
			ok := true
			for h := m.height - 1; h >= 1; h-- {
				items, gok := m.tax.GeneralizeSet(leafItems, h)
				if !gok || len(items) != k {
					ok = false
					break
				}
				// Each level has its own column bound, so row h may end
				// before column k.
				if k >= len(m.rows[h]) || m.rows[h][k] == nil {
					ok = false
					break
				}
				row := m.rows[h][k]
				pi := row.store.Lookup(items)
				if pi < 0 || row.meta[pi].infrequent {
					ok = false
					break
				}
				pe := &row.meta[pi]
				if !pe.label.Labeled() || !chain[h].Label.Flips(pe.label) {
					ok = false
					break
				}
				chain[h-1] = LevelInfo{
					Level: h, Items: row.store.Items(pi).Clone(), Support: row.store.Sup[pi],
					Corr: pe.corr, Label: pe.label,
				}
			}
			if !ok {
				continue
			}
			p := Pattern{Leaf: chain[m.height-1].Items, Chain: chain}
			p.computeGap()
			m.stats.AliveItemsets++
			out = append(out, p)
		}
	}
	return out
}
