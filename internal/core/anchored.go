package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/sketch"
)

// Anchored top-K search: given one taxonomy item X (the anchor), find the
// AnchorTopK flipping patterns whose generalization chain passes through X,
// ranked by descending flip gap. Instead of mining the full pattern set and
// filtering, the search enumerates only chains through X and consults
// per-item bottom-k sketches (internal/sketch) before every exact support
// count: a candidate whose sketch bracket proves it infrequent, unable to
// carry the required label, or unable to beat the current K-th best gap is
// dropped without an exact count. Survivors the bracket cannot pin are
// counted exactly on the level's cached bitmap index, with the kernels
// countBitmap uses. Because every prune is justified by a one-sided bound,
// guaranteed mode returns exactly what filtering the full exact mine would;
// best-effort mode additionally trusts the sketch point estimates and
// reports a per-pattern Confidence instead.

// ErrUnknownAnchor reports an anchored run whose Config.Anchor names no item
// in the taxonomy.
var ErrUnknownAnchor = errors.New("core: unknown anchor item")

// mineAnchored runs anchored top-K search. Materialized runs use the
// sketch-pruned DFS; streaming runs have no materialized levels to sketch,
// so they fall back to the exact full mine plus a chain filter.
func (m *miner) mineAnchored() ([]Pattern, error) {
	anchor, ok := m.tax.Dict().Lookup(m.cfg.Anchor)
	if !ok || !m.tax.Contains(anchor) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAnchor, m.cfg.Anchor)
	}
	la := m.tax.LevelOf(anchor)
	topK := m.cfg.AnchorTopK
	bestEff := m.cfg.AnchorMode == AnchorBestEffort

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
		kept = rankAnchored(kept, topK)
		if bestEff {
			for i := range kept {
				kept[i].Confidence = 1 // exact path: nothing was estimated away
			}
		}
		return kept, nil
	}

	a := &anchoredSearch{
		m:       m,
		anchor:  anchor,
		root:    m.tax.RootOf(anchor),
		la:      la,
		topK:    topK,
		bestEff: bestEff,
		sk:      m.sketchSet(),
		vecs:    m.sc.vecsFor(1, m.maxK)[0],
	}
	a.run()
	pats := rankAnchored(a.patterns, topK)
	if bestEff {
		for i := range pats {
			conf := 1.0
			if a.riskGap > 0 && pats[i].Gap < a.riskGap {
				conf = pats[i].Gap / a.riskGap
			}
			pats[i].Confidence = conf
		}
	}
	return pats, nil
}

// rankAnchored orders patterns by descending gap and keeps the top K.
func rankAnchored(pats []Pattern, topK int) []Pattern {
	sortPatternsByGap(pats)
	if len(pats) > topK {
		pats = pats[:topK]
	}
	return pats
}

// anchoredSearch is the state of one sketch-pruned anchored DFS.
type anchoredSearch struct {
	m      *miner
	anchor itemset.ID
	root   itemset.ID // the anchor's level-1 root, present in every chain
	la     int        // the anchor's own taxonomy level

	topK    int
	bestEff bool

	sk   *sketch.Set
	vecs []bitmap.Vector // exact-count scratch: one header per candidate item

	path     []LevelInfo // chain of the current DFS branch, levels 1..h
	patterns []Pattern
	gaps     []float64 // collected gaps, descending, capped at topK

	// riskGap caps the gap any estimate-pruned candidate could have carried
	// (best-effort only): the basis of per-pattern Confidence.
	riskGap float64
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
		sup, pruned := a.resolveRoot(cand)
		if pruned || sup < m.minSup[1] {
			continue
		}
		corr := a.corrAt(cand, sup, 1)
		var label Label
		switch {
		case corr >= m.cfg.Gamma:
			label = LabelPositive
		case corr <= m.cfg.Epsilon:
			label = LabelNegative
		}
		if label.Labeled() {
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

// resolveRoot returns the support of a level-1 root set, or pruned=true
// when the sketch shows (guaranteed) or estimates (best-effort) that it is
// infrequent. A bracket that pins the support exactly is used directly;
// only ambiguous brackets fall back to an exact bitmap count.
func (a *anchoredSearch) resolveRoot(cand itemset.Set) (sup int64, pruned bool) {
	m := a.m
	m.stats.SketchProbes++
	b := a.boundAt(cand, 1)
	if b.Hi < m.minSup[1] {
		m.stats.SketchPruned++
		return 0, true
	}
	if a.bestEff && !b.Exact() && b.Est < m.minSup[1] {
		m.stats.SketchPruned++
		// No chain exists yet, so a wrongly pruned root set could have
		// carried any gap; the risk bound is the full correlation range.
		a.noteRisk(1)
		return 0, true
	}
	if b.Exact() {
		m.stats.SketchPruned++
		return b.Lo, false
	}
	return a.exactSupport(cand, 1), false
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

// visit judges one descent candidate at level h: sketch prunes first
// (frequency, required label, gap ceiling), then — in best-effort mode —
// estimate prunes, then exact resolution, labeling, and recursion.
func (a *anchoredSearch) visit(cand itemset.Set, anchorIdx, h int, corrPrev float64, labelPrev Label, gapSoFar float64) {
	m := a.m
	if m.cancelled() {
		return
	}
	required := LabelPositive
	if labelPrev == LabelPositive {
		required = LabelNegative
	}
	thr := m.minSup[h]
	m.stats.SketchProbes++
	b := a.boundAt(cand, h)
	if b.Hi < thr {
		m.stats.SketchPruned++
		return
	}
	corrLo, corrHi := a.corrRange(cand, b, h)
	if required == LabelPositive && corrHi < m.cfg.Gamma {
		m.stats.SketchPruned++
		return
	}
	if required == LabelNegative && corrLo > m.cfg.Epsilon {
		m.stats.SketchPruned++
		return
	}
	// The widest transition the true correlation could produce caps the gap
	// of every pattern through this candidate.
	tHi := corrPrev - corrLo
	if d := corrHi - corrPrev; d > tHi {
		tHi = d
	}
	gapUB := gapSoFar
	if tHi < gapUB {
		gapUB = tHi
	}
	if g, full := a.gapFloor(); full && gapUB < g {
		m.stats.SketchPruned++
		return
	}
	if a.bestEff && a.estPrune(cand, b, h, thr, required, corrPrev, gapSoFar, gapUB) {
		m.stats.SketchPruned++
		return
	}
	var sup int64
	if b.Exact() {
		m.stats.SketchPruned++ // support pinned by the sketch; no exact count
		sup = b.Lo
	} else {
		sup = a.exactSupport(cand, h)
	}
	if sup < thr {
		return
	}
	corr := a.corrAt(cand, sup, h)
	var label Label
	switch {
	case corr >= m.cfg.Gamma:
		label = LabelPositive
	case corr <= m.cfg.Epsilon:
		label = LabelNegative
	default:
		return
	}
	if label != required {
		return
	}
	gap := corr - corrPrev
	if gap < 0 {
		gap = -gap
	}
	if gap > gapSoFar {
		gap = gapSoFar
	}
	// Exact knowledge now: deeper transitions only shrink the running gap,
	// so a chain strictly below the top-K floor cannot recover (ties keep
	// going — the floor pattern could lose the leaf-key tiebreak).
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

// estPrune applies best-effort pruning: treat the sketch estimate as the
// truth and drop the candidate when that truth would fail frequency, the
// required label, or the gap floor. Each drop records the candidate's
// sound gap ceiling, which caps how good a wrongly pruned pattern could
// have been — the basis of Confidence.
func (a *anchoredSearch) estPrune(cand itemset.Set, b sketch.Bound, h int, thr int64, required Label, corrPrev, gapSoFar, gapUB float64) bool {
	m := a.m
	if b.Exact() {
		return false // the estimate is the truth; nothing to risk
	}
	prune := b.Est < thr
	if !prune {
		estCorr := a.corrClamped(cand, b.Est, h)
		switch required {
		case LabelPositive:
			prune = estCorr < m.cfg.Gamma
		case LabelNegative:
			prune = estCorr > m.cfg.Epsilon
		}
		if !prune {
			tEst := estCorr - corrPrev
			if tEst < 0 {
				tEst = -tEst
			}
			gEst := gapSoFar
			if tEst < gEst {
				gEst = tEst
			}
			if g, full := a.gapFloor(); full && gEst < g {
				prune = true
			}
		}
	}
	if prune {
		a.noteRisk(gapUB)
	}
	return prune
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

// boundAt probes the sketch level for the candidate's support bracket.
func (a *anchoredSearch) boundAt(items itemset.Set, h int) sketch.Bound {
	lv := a.sk.Level(h)
	if lv == nil {
		// No sketch for this level: an unbounded bracket, so nothing prunes
		// and every candidate falls through to exact counting.
		return sketch.Bound{Lo: 0, Hi: math.MaxInt64, Est: math.MaxInt64}
	}
	return lv.Bound(items)
}

// exactSupport is the fallback exact count: an AND+popcount over the level's
// cached bitmap index, summed over shards when the representation is
// sharded. Builds and word ops are accounted as countBitmap accounts them.
func (a *anchoredSearch) exactSupport(items itemset.Set, h int) int64 {
	m := a.m
	m.stats.ExactFallbacks++
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

// corrClamped is corrAt with the support clamped into its feasible range
// [0, min single support] — sketch estimates and upper bounds can exceed
// what any true support could be, and Measure.Corr rejects that.
func (a *anchoredSearch) corrClamped(items itemset.Set, sup int64, h int) float64 {
	m := a.m
	sup1 := m.ds.sup1[h]
	for _, id := range items {
		if s := sup1[id]; sup > s {
			sup = s
		}
	}
	if sup <= 0 {
		return 0
	}
	return a.corrAt(items, sup, h)
}

// corrRange turns a support bracket into a correlation bracket: every
// supported measure is monotone increasing in sup(AB), so bounding the
// support bounds the correlation.
func (a *anchoredSearch) corrRange(items itemset.Set, b sketch.Bound, h int) (lo, hi float64) {
	if b.Lo > 0 {
		lo = a.corrClamped(items, b.Lo, h)
	}
	if b.Hi > 0 {
		hi = a.corrClamped(items, b.Hi, h)
	}
	return lo, hi
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

// noteRisk records the sound gap ceiling of an estimate-pruned candidate.
// Correlations live in [0, 1], so no transition — and no gap — exceeds 1.
func (a *anchoredSearch) noteRisk(g float64) {
	if g > 1 {
		g = 1
	}
	if g > a.riskGap {
		a.riskGap = g
	}
}
