package gbt

import "sort"

// This file freezes the original sort-per-node tree fitting as an equivalence
// oracle and benchmark baseline for the presorted grower in tree.go. The only
// change from the seed implementation is an explicit (value, index) tie-break
// in the per-node sort, which pins down the scan order the presorted path
// reproduces — with it, both implementations accumulate every prefix sum in
// the same order and fit byte-identical trees. It must not be optimized.

// referenceFitTree grows a regression tree by re-sorting the node's samples
// on every feature at every node. Inputs must be well-formed (Fit
// validates); it is retained for tests and benchmarks only.
func referenceFitTree(X [][]float64, y []float64, cfg TreeConfig) *Tree {
	if cfg.MinLeafSize < 1 {
		cfg.MinLeafSize = 1
	}
	if len(y) == 0 {
		return &Tree{root: &treeNode{Feature: -1}}
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: referenceGrow(X, y, idx, cfg, 0)}
}

// referenceFit trains a boosted ensemble using referenceFitTree per stage.
func referenceFit(X [][]float64, y []float64, cfg Config) *Regressor {
	r := &Regressor{cfg: cfg}
	if len(y) == 0 {
		return r
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	r.base = mean

	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = mean
	}
	resid := make([]float64, len(y))
	tc := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeafSize: cfg.MinLeafSize}
	for m := 0; m < cfg.Stages; m++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		tree := referenceFitTree(X, resid, tc)
		r.trees = append(r.trees, tree)
		for i := range pred {
			pred[i] += cfg.Rate * tree.Predict(X[i])
		}
	}
	return r
}

func referenceMean(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func referenceGrow(X [][]float64, y []float64, idx []int, cfg TreeConfig, depth int) *treeNode {
	node := &treeNode{Feature: -1, Value: referenceMean(y, idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return node
	}
	feat, thr, gain := referenceBestSplit(X, y, idx, cfg.MinLeafSize)
	if feat < 0 || gain <= 0 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeafSize || len(right) < cfg.MinLeafSize {
		return node
	}
	node.Feature = feat
	node.Threshold = thr
	node.Left = referenceGrow(X, y, left, cfg, depth+1)
	node.Right = referenceGrow(X, y, right, cfg, depth+1)
	return node
}

func referenceBestSplit(X [][]float64, y []float64, idx []int, minLeaf int) (feature int, threshold, gain float64) {
	n := len(idx)
	if n < 2*minLeaf {
		return -1, 0, 0
	}
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	feature = -1
	d := len(X[idx[0]])
	order := make([]int, n)
	for f := 0; f < d; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool {
			va, vb := X[order[a]][f], X[order[b]][f]
			if va != vb {
				return va < vb
			}
			return order[a] < order[b]
		})
		var leftSum, leftSq float64
		for k := 0; k < n-1; k++ {
			i := order[k]
			leftSum += y[i]
			leftSq += y[i] * y[i]
			nl := k + 1
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			if X[order[k]][f] == X[order[k+1]][f] {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
			g := parentSSE - sse
			if g > gain {
				gain = g
				feature = f
				threshold = 0.5 * (X[order[k]][f] + X[order[k+1]][f])
			}
		}
	}
	return feature, threshold, gain
}
