package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Every generated input comes from the run's seed; the program under test
// sees only these inputs, never the seed.

// workloadRand derives a workload's generator from the run seed, so that
// each set-up of one workload in a run regenerates identical inputs.
func workloadRand(seed int64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// freshIDs returns n distinct statement ids in seeded order. Ids keep a
// fixed digit count so that every seed generates statements of the same
// length and wire_bytes_per_msg compares across seeds.
func freshIDs(rng *rand.Rand, n int) []int {
	const lo, span = 1000000, 9000000
	seen := make(map[int]struct{}, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		id := lo + rng.Intn(span)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids
}

func statements(pred string, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%s(%d).", pred, id)
	}
	return out
}

// query is one served read and its expected answer.
type query struct {
	src  string
	rows int  // exact row count expected
	scan bool // object scan (~BaseFacts/objects rows) rather than point lookup
	user int  // point lookups: the user key, for checking the returned row
}

// pointQuery looks up the single perm row of user k.
func pointQuery(k int) query {
	return query{src: fmt.Sprintf("perm(u%d, O, M)", k), rows: 1, user: k}
}

// scanQuery lists every user permitted on object j of a base-fact
// relation.
func scanQuery(j, base int) query {
	rows := base / objects
	if j < base%objects {
		rows++
	}
	return query{src: fmt.Sprintf("perm(U, o%d, read)", j), rows: rows, scan: true}
}

// readMix draws n served reads: scanPct percent object scans, the rest
// point lookups, keys uniform over the loaded facts.
func readMix(rng *rand.Rand, n, base, scanPct int) []query {
	out := make([]query, n)
	for i := range out {
		if rng.Intn(100) < scanPct {
			out[i] = scanQuery(rng.Intn(objects), base)
		} else {
			out[i] = pointQuery(rng.Intn(base))
		}
	}
	return out
}
