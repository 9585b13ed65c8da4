// Package gbt implements gradient-boosted regression trees with squared
// loss. It backs the LM-gbt cardinality-estimator variant from §4.1.2 of the
// Warper paper (sklearn GradientBoostingRegressor in the original; this is a
// faithful reimplementation of the same algorithm). Tree ensembles cannot be
// fine-tuned, so the estimator built on this package re-trains from scratch
// on every update, exactly as the paper describes.
//
// Tree growth uses the presorted exact-greedy algorithm: feature indices are
// sorted once (by value, ties broken by sample index so results do not depend
// on sort stability), and node partitions keep each feature's order with a
// stable split instead of re-sorting per node. Split scans accumulate prefix
// sums in the same per-feature sorted order as the sort-per-node reference in
// reference.go, so fitted trees are byte-identical to it.
package gbt

import (
	"errors"
	"sort"
)

// treeNode is one node of a regression tree. Leaves have Feature == -1.
type treeNode struct {
	Feature   int // -1 for leaf
	Threshold float64
	Left      *treeNode
	Right     *treeNode
	Value     float64 // leaf prediction
}

// Tree is a single regression tree fit with exact greedy splits on SSE.
type Tree struct {
	root *treeNode
}

// TreeConfig controls regression-tree growth.
type TreeConfig struct {
	MaxDepth    int // maximum tree depth; 0 means a single leaf
	MinLeafSize int // minimum samples in each child after a split
}

// grower holds the presorted state shared by every tree of an ensemble fit:
// column-major feature values, per-feature sorted index arrays, and the node
// sample list in original relative order (so leaf means and node totals
// accumulate in the same order as the reference implementation).
type grower struct {
	cols [][]float64 // cols[f][i] = X[i][f]
	y    []float64
	cfg  TreeConfig

	master [][]int // per-feature indices sorted by (value, index); never mutated
	ord    [][]int // working copy, stably partitioned during growth
	rows   []int   // node samples in original relative order
	rows0  []int   // 0..n-1, copied into rows before each tree
	tmp    []int   // partition scratch
}

func newGrower(X [][]float64, y []float64, cfg TreeConfig) *grower {
	if cfg.MinLeafSize < 1 {
		cfg.MinLeafSize = 1
	}
	n := len(y)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	g := &grower{y: y, cfg: cfg}
	g.cols = make([][]float64, d)
	for f := 0; f < d; f++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = X[i][f]
		}
		g.cols[f] = col
	}
	g.master = make([][]int, d)
	g.ord = make([][]int, d)
	for f := 0; f < d; f++ {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		col := g.cols[f]
		sort.Slice(m, func(a, b int) bool {
			va, vb := col[m[a]], col[m[b]]
			if va != vb {
				return va < vb
			}
			return m[a] < m[b]
		})
		g.master[f] = m
		g.ord[f] = make([]int, n)
	}
	g.rows0 = make([]int, n)
	for i := range g.rows0 {
		g.rows0[i] = i
	}
	g.rows = make([]int, n)
	g.tmp = make([]int, n)
	return g
}

// fitTree grows one tree over the current targets in g.y, resetting the
// working index arrays from the presorted masters.
func (g *grower) fitTree() *Tree {
	for f := range g.ord {
		copy(g.ord[f], g.master[f])
	}
	copy(g.rows, g.rows0)
	return &Tree{root: g.grow(0, len(g.rows), 0)}
}

func (g *grower) grow(lo, hi, depth int) *treeNode {
	node := &treeNode{Feature: -1, Value: g.mean(lo, hi)}
	n := hi - lo
	if depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeafSize {
		return node
	}
	feat, thr, gain := g.bestSplit(lo, hi)
	if feat < 0 || gain <= 0 {
		return node
	}
	nl := g.partition(lo, hi, feat, thr)
	if nl < g.cfg.MinLeafSize || n-nl < g.cfg.MinLeafSize {
		return node
	}
	node.Feature = feat
	node.Threshold = thr
	node.Left = g.grow(lo, lo+nl, depth+1)
	node.Right = g.grow(lo+nl, hi, depth+1)
	return node
}

func (g *grower) mean(lo, hi int) float64 {
	if hi == lo {
		return 0
	}
	var s float64
	for _, i := range g.rows[lo:hi] {
		s += g.y[i]
	}
	return s / float64(hi-lo)
}

// bestSplit scans every feature's presorted index range with a prefix-sum
// sweep, features in ascending order, and keeps the first candidate with the
// strictly largest gain.
func (g *grower) bestSplit(lo, hi int) (feature int, threshold, gain float64) {
	n := hi - lo
	minLeaf := g.cfg.MinLeafSize
	if n < 2*minLeaf {
		return -1, 0, 0
	}
	var totalSum, totalSq float64
	for _, i := range g.rows[lo:hi] {
		totalSum += g.y[i]
		totalSq += float64(g.y[i] * g.y[i])
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	feature = -1
	for f, col := range g.cols {
		ord := g.ord[f][lo:hi]
		var leftSum, leftSq float64
		for k := 0; k < n-1; k++ {
			i := ord[k]
			yi := g.y[i]
			leftSum += yi
			leftSq += float64(yi * yi)
			nl := k + 1
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			// Skip ties: can't split between equal feature values.
			v, vNext := col[i], col[ord[k+1]]
			if v == vNext {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
			if gn := parentSSE - sse; gn > gain {
				feature, threshold, gain = f, 0.5*(v+vNext), gn
			}
		}
	}
	return feature, threshold, gain
}

// partition stably splits rows and every feature's sorted index range on
// col[feat] <= thr, keeping left-going entries first in their original
// relative order. Each per-feature range therefore stays sorted by
// (value, index), and rows stays in original relative order — the invariants
// the split scans and leaf means rely on.
func (g *grower) partition(lo, hi, feat int, thr float64) int {
	col := g.cols[feat]
	split := func(a []int) int {
		nl := 0
		t := g.tmp[:0]
		for _, i := range a {
			if col[i] <= thr {
				a[nl] = i
				nl++
			} else {
				t = append(t, i)
			}
		}
		copy(a[nl:], t)
		return nl
	}
	nl := split(g.rows[lo:hi])
	for f := range g.ord {
		split(g.ord[f][lo:hi])
	}
	return nl
}

func validate(X [][]float64, y []float64) error {
	if len(X) != len(y) {
		return errors.New("gbt: X and y length mismatch")
	}
	if len(X) == 0 {
		return nil
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return errors.New("gbt: ragged feature rows")
		}
	}
	return nil
}

// Predict returns the tree's output for x.
func (t *Tree) Predict(x []float64) float64 {
	node := t.root
	for node.Feature >= 0 {
		if x[node.Feature] <= node.Threshold {
			node = node.Left
		} else {
			node = node.Right
		}
	}
	return node.Value
}
