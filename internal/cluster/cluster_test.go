package cluster

import (
	"sync/atomic"
	"testing"

	"iolap/internal/rel"
)

func intRel(n int) *rel.Relation {
	r := rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KInt}})
	for i := 0; i < n; i++ {
		r.Append(rel.Int(int64(i)))
	}
	return r
}

func TestPoolMapRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var count atomic.Int64
		seen := make([]atomic.Bool, 100)
		p.Map(100, func(i int) {
			count.Add(1)
			seen[i].Store(true)
		})
		if count.Load() != 100 {
			t.Errorf("workers=%d: ran %d tasks, want 100", workers, count.Load())
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Errorf("workers=%d: task %d not run", workers, i)
			}
		}
	}
}

func TestPoolMapZeroAndDefaults(t *testing.T) {
	p := NewPool(0)
	if p.Workers() <= 0 {
		t.Error("default pool must have positive parallelism")
	}
	p.Map(0, func(int) { t.Error("no tasks expected") })
}

func TestPartitionByKeyIsDeterministicAndComplete(t *testing.T) {
	r := intRel(100)
	a := PartitionByKey(r, []int{0}, 4)
	b := PartitionByKey(r, []int{0}, 4)
	total := 0
	for i := range a {
		total += a[i].Len()
		if a[i].Len() != b[i].Len() {
			t.Error("hash partitioning must be deterministic")
		}
	}
	if total != 100 {
		t.Errorf("lost tuples: %d", total)
	}
	// Same key lands in the same partition.
	dup := rel.NewRelation(r.Schema)
	dup.Append(rel.Int(7))
	dup.Append(rel.Int(7))
	parts := PartitionByKey(dup, []int{0}, 8)
	nonEmpty := 0
	for _, p := range parts {
		if p.Len() > 0 {
			nonEmpty++
			if p.Len() != 2 {
				t.Error("equal keys must colocate")
			}
		}
	}
	if nonEmpty != 1 {
		t.Error("equal keys split across partitions")
	}
}

func TestPartitionByKeyAllocs(t *testing.T) {
	// The partition hot path must not allocate a key string per tuple
	// (PR 5 zero-alloc budget): rel.EncodeKeyInto with a reused scratch
	// buffer leaves only the output relations and their amortised slice
	// growth, far below one alloc per tuple.
	r := intRel(1000)
	keys := []int{0}
	allocs := testing.AllocsPerRun(10, func() {
		PartitionByKey(r, keys, 4)
	})
	if allocs > 120 {
		t.Errorf("PartitionByKey allocates %.0f times for 1000 tuples; key encoding is allocating per tuple", allocs)
	}
}

func Test_keyBucketMatchesPartitionByKey(t *testing.T) {
	// keyBucket over encoded key bytes must agree with PartitionByKey's
	// placement for every tuple.
	r := intRel(200)
	keys := []int{0}
	const p = 8
	parts := PartitionByKey(r, keys, p)
	want := make(map[int64]int)
	for b, part := range parts {
		for _, t := range part.Tuples {
			want[t.Vals[0].Int()] = b
		}
	}
	var scratch []byte
	for _, tp := range r.Tuples {
		scratch = rel.EncodeKeyInto(scratch[:0], tp.Vals, keys)
		if got := keyBucket(scratch, p); got != want[tp.Vals[0].Int()] {
			t.Fatalf("keyBucket(%d) = %d, PartitionByKey placed it in %d", tp.Vals[0].Int(), got, want[tp.Vals[0].Int()])
		}
	}
	if keyBucket([]byte("x"), 0) != 0 || keyBucket([]byte("x"), 1) != 0 {
		t.Error("p <= 1 collapses to bucket 0")
	}
}

func TestShuffleIsPermutationAndDeterministic(t *testing.T) {
	r := intRel(50)
	s1 := Shuffle(r, 42)
	s2 := Shuffle(r, 42)
	s3 := Shuffle(r, 43)
	if !rel.EqualBag(r, s1, 0) {
		t.Error("shuffle must be a permutation")
	}
	same := true
	diff43 := false
	for i := range s1.Tuples {
		if s1.Tuples[i].Vals[0].Int() != s2.Tuples[i].Vals[0].Int() {
			same = false
		}
		if s1.Tuples[i].Vals[0].Int() != s3.Tuples[i].Vals[0].Int() {
			diff43 = true
		}
	}
	if !same {
		t.Error("same seed must give same permutation")
	}
	if !diff43 {
		t.Error("different seeds should differ")
	}
	// Original untouched.
	if r.Tuples[0].Vals[0].Int() != 0 {
		t.Error("Shuffle must not mutate its input")
	}
}

func TestMetrics(t *testing.T) {
	var m Metrics
	m.RecordShuffleBytes(100)
	m.RecordShuffleBytes(23)
	m.RecordBroadcastBytes(7)
	if m.ShuffleBytes() != 123 {
		t.Errorf("shuffle bytes = %d", m.ShuffleBytes())
	}
	if m.BroadcastBytes() != 7 {
		t.Errorf("broadcast bytes = %d", m.BroadcastBytes())
	}
	m.Reset()
	if m.ShuffleBytes() != 0 || m.BroadcastBytes() != 0 {
		t.Error("reset failed")
	}
	// nil metrics are no-ops.
	var nilM *Metrics
	nilM.RecordShuffleBytes(5)
	nilM.RecordBroadcastBytes(5)
}

func TestMetricsConcurrent(t *testing.T) {
	var m Metrics
	p := NewPool(8)
	p.Map(1000, func(int) { m.RecordShuffleBytes(1) })
	if m.ShuffleBytes() != 1000 {
		t.Errorf("concurrent accounting lost updates: %d", m.ShuffleBytes())
	}
}
