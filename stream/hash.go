package stream

// Hash returns a 64-bit FNV-1a hash of the value, equal for equal values
// (same kind and payload). The partitioned execution layer routes tuples
// by Hash of their co-partitioning attribute, so the function must be
// deterministic across processes and allocation-free.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	// The hashed bytes are the kind, the eight payload bytes (zero for a
	// string) and the string bytes (none for a number).
	h := (uint64(offset64) ^ uint64(v.Kind())) * prime64
	n := v.Bits()
	for i := 0; i < 8; i++ {
		h ^= n & 0xff
		h *= prime64
		n >>= 8
	}
	str := v.str()
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= prime64
	}
	return h
}
