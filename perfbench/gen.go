package main

import (
	"math/rand"
	"sort"
)

// The input generator is the only reader of the workload seed: the
// program under test receives generated identifiers, scheduler seeds and
// job specs, never the seed itself.

// newRand derives an independent stream per workload from the seed.
func newRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// cyclicOrders lists the relative orders of n identifiers on C_n up to
// rotation and reflection (one representative per dihedral class), as
// rank vectors. The model checker's work depends mostly on this order, so
// covering every class in each round keeps a run's cost independent of
// the seed, while the seed still picks the identifier values.
func cyclicOrders(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	perm[0] = 0
	used[0] = true
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			if perm[1] < perm[n-1] { // one of each mirror pair
				out = append(out, append([]int(nil), perm...))
			}
			return
		}
		for v := 1; v < n; v++ {
			if !used[v] {
				used[v] = true
				perm[pos] = v
				rec(pos + 1)
				used[v] = false
			}
		}
	}
	rec(1)
	return out
}

// idsForOrder draws distinct identifiers in [0, span) whose relative
// order is the rank vector.
func idsForOrder(rng *rand.Rand, ranks []int, span int) []int {
	vals := rng.Perm(span)[:len(ranks)]
	sort.Ints(vals)
	xs := make([]int, len(ranks))
	for i, r := range ranks {
		xs[i] = vals[r]
	}
	return xs
}
