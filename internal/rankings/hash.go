package rankings

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Hash returns a content hash of the dataset: 32 hex characters derived
// from the universe size and the canonical form of every ranking (bucket
// boundaries preserved, element order within a bucket ignored — tied
// elements are an unordered set). Two datasets hash equal iff they hold
// the same rankings in the same order over the same universe, which makes
// the hash a cache key for derived artifacts such as the O(n²) pair matrix
// (the serving layer's LRU keys on it).
func (d *Dataset) Hash() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(d.N)
	writeInt(len(d.Rankings))
	// The scratch holds one bucket at a time and grows to the widest one;
	// it is never sized by N, which a tiny payload can declare arbitrarily
	// large.
	var scratch []int
	for _, r := range d.Rankings {
		writeInt(len(r.Buckets))
		for _, b := range r.Buckets {
			writeInt(len(b))
			scratch = append(scratch[:0], b...)
			sort.Ints(scratch)
			for _, e := range scratch {
				writeInt(e)
			}
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
