package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// bucketDigest is the reference digest: recomputed from scratch with the
// standard library's FNV-1a over key ‖ 0 ‖ value, XORed across entries.
// The stores maintain the same value incrementally; tests compare the two.
func bucketDigest(b map[string][]byte) (int, uint64) {
	var sum uint64
	for k, v := range b {
		h := fnv.New64a()
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write(v)
		sum ^= h.Sum64()
	}
	return len(b), sum
}

// digestMismatch describes how a store's maintained digest differs from
// the one recomputed from its contents ("" when they agree).
func digestMismatch(st *kvStore) string {
	gotN, gotSum := st.digest()
	wantN, wantSum := bucketDigest(st.m)
	if gotN != wantN || gotSum != wantSum {
		return fmt.Sprintf("maintained digest (%d, %#x) != recomputed (%d, %#x)", gotN, gotSum, wantN, wantSum)
	}
	return ""
}

func checkStore(t *testing.T, what string, st *kvStore) {
	t.Helper()
	if bad := digestMismatch(st); bad != "" {
		t.Fatalf("%s: %s", what, bad)
	}
}

func TestStoreDigestTracksMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := newStore(nil)
	checkStore(t, "empty", st)
	for step := 0; step < 5000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(200)) // small key space: mostly overwrites and real deletes
		switch rng.Intn(10) {
		case 0:
			m := make(map[string][]byte)
			for i := rng.Intn(50); i > 0; i-- {
				m[fmt.Sprintf("k%d", rng.Intn(200))] = []byte{byte(i)}
			}
			st.replaceAll(m)
		case 1, 2, 3:
			_, was := st.m[k]
			if st.del(k) != was {
				t.Fatalf("del(%q) misreported presence", k)
			}
		case 4:
			st.put(k, nil) // empty value: still an entry
		default:
			v := make([]byte, rng.Intn(40))
			rng.Read(v)
			st.put(k, v)
		}
		checkStore(t, fmt.Sprintf("step %d", step), st)
	}
	// Order independence: the same contents reached another way.
	other := newStore(nil)
	for k, v := range st.m {
		other.put(k, v)
	}
	if n, sum := other.digest(); n != st.len() || sum != st.sum {
		t.Fatalf("same contents, different digests: (%d, %#x) vs (%d, %#x)", n, sum, st.len(), st.sum)
	}
	// Key/value boundary matters: ("ab", "c") and ("a", "bc") differ.
	if entryHash("ab", []byte("c")) == entryHash("a", []byte("bc")) {
		t.Fatal("separator byte not hashed")
	}
}
