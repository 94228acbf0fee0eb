package fleet

import (
	"fmt"
	"sort"
)

// Consistent-hash placement: each shard owns ringReplicas virtual
// nodes on a 64-bit ring, and a job lands on the first virtual node at
// or after its name's hash.  Adding or removing a shard moves only the
// jobs in the arcs that shard's virtual nodes covered — restarts do
// not reshuffle the whole corpus, so shard-local caches stay warm
// across fleet resizes.
//
// The ring decides *initial* placement only.  Liveness is the
// scheduler's problem: a dead or breaker-ejected shard is skipped at
// placement time, and work already queued on a shard that dies is
// drained by stealing, not by re-hashing.

// ring maps job names to shard indices via virtual nodes.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// ringHash is FNV-1a followed by a 64-bit avalanche finalizer.  Raw
// FNV-1a clusters badly on strings that differ only in their trailing
// bytes (exactly what "shard-N/vnode-M" names are): the last byte is
// multiplied by the prime just once, so consecutive vnodes land in
// consecutive ring positions and a few shards end up owning huge arcs.
// The finalizer (Murmur3's fmix64) spreads those runs uniformly.
func ringHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringReplicas is the number of virtual nodes per shard.
const ringReplicas = 16

// newRing builds the ring for shards shards.
func newRing(shards int) *ring {
	r := &ring{points: make([]ringPoint, 0, shards*ringReplicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owner returns the shard owning name, ignoring liveness.
func (r *ring) owner(name string) int {
	return r.points[r.search(name)].shard
}

// ownerLive walks the ring clockwise from name's position and returns
// the first shard for which live reports true; if none does, it falls
// back to the raw owner (the scheduler will park the job until a shard
// revives or steals it).
func (r *ring) ownerLive(name string, live func(int) bool) int {
	start := r.search(name)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if live(p.shard) {
			return p.shard
		}
	}
	return r.points[start].shard
}

func (r *ring) search(name string) int {
	h := ringHash(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
