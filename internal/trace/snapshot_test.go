package trace

import (
	"testing"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

func record(b *Buffer, n int) {
	for i := 0; i < n; i++ {
		b.Record(Event{
			When: sim.Time(i) * sim.Microsecond, Kind: Kind(i % 4),
			PCPU: i % 3, VM: "vm0", VCPU: i % 2, Detail: "d",
		})
	}
}

func TestBufferSaveLoad(t *testing.T) {
	for _, n := range []int{0, 3, 8, 13} { // below, at, and beyond capacity 8
		src := NewBuffer(8)
		record(src, n)
		enc := snap.NewWriter()
		src.Snap(enc)

		dst := NewBuffer(8)
		if err := dst.Snap(snap.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("n=%d: Load = %v", n, err)
		}
		if dst.Total() != src.Total() {
			t.Fatalf("n=%d: total %d != %d", n, dst.Total(), src.Total())
		}
		se, de := src.Events(), dst.Events()
		if len(se) != len(de) {
			t.Fatalf("n=%d: events %d != %d", n, len(de), len(se))
		}
		for i := range se {
			if se[i] != de[i] {
				t.Fatalf("n=%d: event %d differs", n, i)
			}
		}
		if src.Summary() != dst.Summary() {
			t.Fatalf("n=%d: summaries differ", n)
		}

		// Recording after restore must behave like the original buffer.
		record(src, 5)
		record(dst, 5)
		if src.Summary() != dst.Summary() || src.Dump() != dst.Dump() {
			t.Fatalf("n=%d: post-restore recording diverged", n)
		}
	}
}

func TestNilBufferSaveLoad(t *testing.T) {
	var nilBuf *Buffer
	enc := snap.NewWriter()
	nilBuf.Snap(enc)
	if err := nilBuf.Snap(snap.NewReader(enc.Bytes())); err != nil {
		t.Fatalf("nil buffer round trip: %v", err)
	}
	dst := NewBuffer(4)
	record(dst, 2)
	if err := dst.Snap(snap.NewReader(enc.Bytes())); err != nil || dst.Total() != 2 {
		t.Fatalf("absent marker into a live buffer: total=%d err=%v", dst.Total(), err)
	}
	present := snap.NewWriter()
	NewBuffer(4).Snap(present)
	if err := nilBuf.Snap(snap.NewReader(present.Bytes())); err == nil {
		t.Fatal("present buffer loaded into a nil one")
	}
}

func TestLoadRejectsCapacityMismatch(t *testing.T) {
	src := NewBuffer(8)
	record(src, 2)
	enc := snap.NewWriter()
	src.Snap(enc)
	if err := NewBuffer(16).Snap(snap.NewReader(enc.Bytes())); err == nil {
		t.Fatal("capacity mismatch not rejected")
	}
}
