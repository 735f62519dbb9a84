package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestStringTable pins the lending decoder's string table: a hit shares
// the slot's string and allocates nothing, a different string in the same
// slot replaces it, what it returns always has the bytes it was given,
// and strings over the cap bypass it.
func TestStringTable(t *testing.T) {
	var tab stringTable
	data := func(s string) *byte { return unsafe.StringData(s) }

	hot := []byte("item-42")
	first := tab.str(hot)
	if first != "item-42" {
		t.Fatalf("str(%q) = %q", hot, first)
	}
	var again string
	if allocs := testing.AllocsPerRun(100, func() { again = tab.str(hot) }); allocs != 0 {
		t.Errorf("a hit allocates %.0f times, want 0", allocs)
	}
	if data(again) != data(first) {
		t.Error("a hit does not share the slot's string")
	}

	// A string of the same length in the same slot: a miss that takes the
	// slot, and the next lookup of it a hit.
	var rival []byte
	for i := 0; rival == nil; i++ {
		if b := []byte(fmt.Sprintf("item-%02d", i)); string(b) != "item-42" && strSlot(b) == strSlot(hot) {
			rival = b
		}
	}
	got := tab.str(rival)
	if got != string(rival) {
		t.Fatalf("str(%q) in the slot of %q = %q", rival, hot, got)
	}
	if again := tab.str(rival); data(again) != data(got) {
		t.Errorf("%q did not replace %q in its slot", rival, hot)
	}
	if back := tab.str(hot); back != "item-42" || data(back) == data(first) {
		t.Errorf("str(%q) after its slot was taken = %q, sharing the old string: %v", hot, back, data(back) == data(first))
	}

	// Many short strings from a small alphabet into one table: many hits,
	// many same-length misses in occupied slots, never the wrong bytes.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(5))
		for j := range b {
			b[j] = "ab"[rng.Intn(2)]
		}
		if s := tab.str(b); s != string(b) {
			t.Fatalf("str(%q) = %q", b, s)
		}
	}

	if s := tab.str(nil); s != "" {
		t.Fatalf("str(nil) = %q", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { again = tab.str([]byte{}) }); allocs != 0 || again != "" {
		t.Errorf("the empty string allocates %.0f times and reads %q", allocs, again)
	}

	atCap := []byte(strings.Repeat("c", strTableMaxLen))
	if a, b := tab.str(atCap), tab.str(atCap); data(a) != data(b) {
		t.Errorf("a string of %d bytes, the cap, is not shared", len(atCap))
	}
	long := []byte(strings.Repeat("x", strTableMaxLen+1))
	a, b := tab.str(long), tab.str(long)
	if a != string(long) || b != string(long) || data(a) == data(b) {
		t.Errorf("a string over the cap reads %q and %q, shared: %v", a, b, data(a) == data(b))
	}
	if allocs := testing.AllocsPerRun(100, func() { again = tab.str(long) }); allocs != 1 {
		t.Errorf("a string over the cap allocates %.0f times, want 1", allocs)
	}
}
