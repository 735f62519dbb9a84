package server

import "io"

// replayBlock is the size of one block of a producer's replay buffer:
// the largest size the allocator still serves from a size class.
const replayBlock = 32 << 10

// replayBuf holds a producer's unacknowledged wire bytes in fixed-size
// blocks. What it allocates over its life is its high-water mark rounded
// up to a block. A contiguous slice grown by append allocates about five
// times its high-water mark, in steps of a quarter of it, and which step a
// run of sends stops on depends on when the first ack happens to arrive —
// measured on the serve path that was 46 to 87 bytes per element from one
// identical run to the next. Like that slice it keeps its high-water mark:
// trimmed blocks are reused, not released.
type replayBuf struct {
	blocks [][]byte // every block but the last is full
	head   int      // bytes of blocks[0] already trimmed
	n      int      // bytes held
	free   [][]byte
}

func (r *replayBuf) len() int { return r.n }

func (r *replayBuf) append(b []byte) {
	r.n += len(b)
	for len(b) > 0 {
		last := len(r.blocks) - 1
		if last < 0 || len(r.blocks[last]) == replayBlock {
			var blk []byte
			if k := len(r.free); k > 0 {
				blk, r.free = r.free[k-1], r.free[:k-1]
			} else {
				blk = make([]byte, 0, replayBlock)
			}
			r.blocks = append(r.blocks, blk)
			last++
		}
		k := min(len(b), replayBlock-len(r.blocks[last]))
		r.blocks[last] = append(r.blocks[last], b[:k]...)
		b = b[k:]
	}
}

// trim drops the first k bytes (0 ≤ k ≤ len).
func (r *replayBuf) trim(k int) {
	r.n -= k
	k += r.head
	drop := 0
	for drop < len(r.blocks) && k >= len(r.blocks[drop]) {
		k -= len(r.blocks[drop])
		r.free = append(r.free, r.blocks[drop][:0])
		drop++
	}
	rest := copy(r.blocks, r.blocks[drop:])
	clear(r.blocks[rest:])
	r.blocks = r.blocks[:rest]
	r.head = k
}

// writeFrom writes the bytes from position from (0 ≤ from ≤ len) to the
// end to w, one Write per block.
func (r *replayBuf) writeFrom(w io.Writer, from int) error {
	from += r.head
	for _, blk := range r.blocks {
		if from < len(blk) {
			if _, err := w.Write(blk[from:]); err != nil {
				return err
			}
			from = 0
		} else {
			from -= len(blk)
		}
	}
	return nil
}
