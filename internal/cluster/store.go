package cluster

// kvStore is one partition's key/value map together with its digest —
// the (count, order-independent checksum) pair anti-entropy compares
// between a primary bucket and its replicas.  The checksum is the XOR of
// entryHash over every entry, so it can be maintained as entries come and
// go instead of being recomputed: put, del and replaceAll are the ONLY
// mutators of m, which is what keeps the digest exact by construction on
// every path that touches a bucket (batch writes, replica writes,
// migration chunks and installs, splits, promotion, full syncs, snapshot
// load, journal replay).  Reads may use m directly.
//
// A kvStore has no lock of its own: a primary bucket's store is guarded
// by the bucket's mutex, a replica bucket's by the snode mutex.
type kvStore struct {
	m   map[string][]byte
	sum uint64 // XOR of entryHash(k, v) over m
}

// newStore returns a store holding m (nil: empty), adopting the map.
func newStore(m map[string][]byte) *kvStore {
	st := &kvStore{}
	st.replaceAll(m)
	return st
}

// put stores v under k, replacing any previous value.
func (st *kvStore) put(k string, v []byte) {
	if old, ok := st.m[k]; ok {
		st.sum ^= entryHash(k, old)
	}
	st.m[k] = v
	st.sum ^= entryHash(k, v)
}

// del removes k, reporting whether it was present.
func (st *kvStore) del(k string) bool {
	old, ok := st.m[k]
	if ok {
		st.sum ^= entryHash(k, old)
		delete(st.m, k)
	}
	return ok
}

// replaceAll makes m (nil: empty) the store's contents, adopting the map
// and hashing it once — the one O(bucket) operation, paid only where a
// whole bucket arrives at once (full sync, install, snapshot load).
func (st *kvStore) replaceAll(m map[string][]byte) {
	if m == nil {
		m = make(map[string][]byte)
	}
	st.m = m
	st.sum = 0
	for k, v := range m {
		st.sum ^= entryHash(k, v)
	}
}

// apply folds one batch's writes into the store, adopting the values:
// they were decoded off a frame or a journal record and are the caller's
// alone.
func (st *kvStore) apply(kind dataOp, items []batchItem) {
	for _, it := range items {
		switch kind {
		case opPut:
			st.put(it.Key, it.Value)
		case opDel:
			st.del(it.Key)
		}
	}
}

// len is the number of stored keys; a dead bucket's nil store holds none.
func (st *kvStore) len() int {
	if st == nil {
		return 0
	}
	return len(st.m)
}

// digest returns (count, checksum): two stores with equal digests are
// treated as in sync.
func (st *kvStore) digest() (int, uint64) { return len(st.m), st.sum }

// entryHash is FNV-1a (64-bit) over key ‖ 0x00 ‖ value, inlined so
// hashing an entry allocates nothing.
func entryHash(k string, v []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * prime
	}
	h *= prime // the 0x00 separator: h ^ 0 == h
	for _, c := range v {
		h = (h ^ uint64(c)) * prime
	}
	return h
}
