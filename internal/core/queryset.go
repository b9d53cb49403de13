package core

import (
	"fmt"
	"math"
)

// Preference-set queries. The PPV of a preference set P with weights w
// is the w-weighted combination of the members' PPVs — the linearity
// property of Jeh–Widom [25] that the paper's preliminaries build on
// (§1, Eq. 1). Every backend and shard supports it, so the distributed
// protocol still needs exactly one vector per machine per query.

// Preference is a weighted preference node set. Weights must be positive
// and finite; they are normalized to sum to 1.
type Preference struct {
	Nodes   []int32
	Weights []float64 // nil = uniform
}

// Validate checks the rules that do not depend on the graph: a
// non-empty set of distinct nodes, one positive finite weight per node
// (or none), and a finite weight sum. Node ids are range-checked
// against the graph when the query runs.
func (p Preference) Validate() error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("core: empty preference set")
	}
	if p.Weights != nil && len(p.Weights) != len(p.Nodes) {
		return fmt.Errorf("core: %d weights for %d nodes", len(p.Weights), len(p.Nodes))
	}
	seen := make(map[int32]bool, len(p.Nodes))
	for _, u := range p.Nodes {
		if seen[u] {
			return fmt.Errorf("core: duplicate preference node %d", u)
		}
		seen[u] = true
	}
	var total float64
	for i, wi := range p.Weights {
		if !(wi > 0) || math.IsInf(wi, 1) {
			return fmt.Errorf("core: weight %v for node %d is not positive and finite", wi, p.Nodes[i])
		}
		total += wi
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("core: preference weights overflow (sum %v)", total)
	}
	return nil
}

// normalized validates the preference against an n-node graph and
// returns per-node normalized weights.
func (p Preference) normalized(n int) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, len(p.Nodes))
	var total float64
	for i, u := range p.Nodes {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("core: preference node %d out of range", u)
		}
		w[i] = 1
		if p.Weights != nil {
			w[i] = p.Weights[i]
		}
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w, nil
}
