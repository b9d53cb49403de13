package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/graph"
)

// scoreTol is the score tolerance of the repository's cluster
// equivalence suites. Top-k ids must match exactly.
const scoreTol = 1e-12

// answer is a top-k PPV answer: ids in rank order with their scores.
type answer struct {
	IDs    []int32
	Scores []float64
}

type gatewayAnswer struct {
	TopK []struct {
		ID    int32   `json:"id"`
		Score float64 `json:"score"`
	} `json:"topk"`
	Error string `json:"error"`
}

type gatewayUpdate struct {
	Inserted   int64 `json:"inserted"`
	Deleted    int64 `json:"deleted"`
	Recomputed int64 `json:"recomputed"`
}

func parseAnswer(body []byte) (answer, error) {
	var g gatewayAnswer
	if err := json.Unmarshal(body, &g); err != nil {
		return answer{}, err
	}
	if g.Error != "" {
		return answer{}, fmt.Errorf("gateway: %s", g.Error)
	}
	a := answer{IDs: make([]int32, len(g.TopK)), Scores: make([]float64, len(g.TopK))}
	for i, e := range g.TopK {
		a.IDs[i], a.Scores[i] = e.ID, e.Score
	}
	return a, nil
}

func sameAnswer(got, want answer) bool {
	if len(got.IDs) != len(want.IDs) {
		return false
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] || math.Abs(got.Scores[i]-want.Scores[i]) > scoreTol {
			return false
		}
	}
	return true
}

func answerOf(stats *cluster.QueryStats) answer {
	es := stats.Result.TopK(topK)
	a := answer{IDs: make([]int32, len(es)), Scores: make([]float64, len(es))}
	for i, e := range es {
		a.IDs[i], a.Scores[i] = e.ID, e.Score
	}
	return a
}

// refQuery answers o in process.
func refQuery(q cluster.Querier, o op) (answer, error) {
	ctx := context.Background()
	var stats *cluster.QueryStats
	var err error
	if o.Kind == opSet {
		stats, err = q.QuerySetCtx(ctx, core.Preference{Nodes: o.Nodes})
	} else {
		stats, err = q.QueryCtx(ctx, o.Node)
	}
	if err != nil {
		return answer{}, err
	}
	return answerOf(stats), nil
}

func opKey(o op) string {
	if o.Kind == opSet {
		return fmt.Sprint(o.Nodes)
	}
	return fmt.Sprint(o.Node)
}

// checkRecords verifies every record against an in-process reference over
// store with the servers' machine count, and returns how many failed:
// transport errors, non-200 answers and answers that differ from the
// reference. With batches, the reference is a LiveLocalCluster that
// replays them in order, and a record passes if it matches the reference
// at any epoch in its [lo, hi] window; update acknowledgements must
// report the same effective edits and recompute count as the replay.
// store is consumed: its graph advances with the replayed batches.
func checkRecords(recs []record, store *core.Store, machines int, batches []graph.Delta) (int, error) {
	ok := make([]bool, len(recs))
	got := make([]answer, len(recs))
	for i, r := range recs {
		if r.err != nil || r.status != http.StatusOK || r.op.Kind == opUpdate {
			continue
		}
		if a, err := parseAnswer(r.body); err == nil {
			got[i] = a
		}
	}
	var q cluster.Querier
	var live *cluster.LiveLocalCluster
	var err error
	if len(batches) > 0 {
		live, err = cluster.NewLiveLocalCluster(store, machines)
		q = live
	} else {
		q, err = cluster.NewLocalCluster(store, machines)
	}
	if err != nil {
		return 0, err
	}
	for e := 0; ; e++ {
		cache := map[string]answer{}
		for i, r := range recs {
			if ok[i] || got[i].IDs == nil || e < r.lo || e > r.hi {
				continue
			}
			k := opKey(r.op)
			want, hit := cache[k]
			if !hit {
				if want, err = refQuery(q, r.op); err != nil {
					return 0, fmt.Errorf("reference %s %s: %w", r.op.Kind, k, err)
				}
				cache[k] = want
			}
			ok[i] = sameAnswer(got[i], want)
		}
		if e == len(batches) {
			break
		}
		st, err := live.ApplyUpdates(context.Background(), batches[e])
		if err != nil {
			return 0, fmt.Errorf("reference batch %d: %w", e, err)
		}
		for i, r := range recs {
			if r.op.Kind != opUpdate || r.op.Batch != e || r.err != nil || r.status != http.StatusOK {
				continue
			}
			var u gatewayUpdate
			if json.Unmarshal(r.body, &u) == nil {
				ok[i] = u.Inserted == int64(len(batches[e].Insert)) && u.Deleted == int64(len(batches[e].Delete)) &&
					u.Inserted == st.Inserted && u.Deleted == st.Deleted && u.Recomputed == st.Recomputed
			}
		}
	}
	failed := 0
	for _, v := range ok {
		if !v {
			failed++
		}
	}
	return failed, nil
}
