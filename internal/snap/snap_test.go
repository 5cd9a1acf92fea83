package snap

import (
	"math"
	"strings"
	"testing"
)

// scalars is one value of every primitive kind, coded in a fixed order.
type scalars struct {
	u8    uint8
	u32   uint32
	u64   uint64
	i64   int64
	t, f  bool
	f64   float64
	s, e  string
	blob  []byte
	n     int
	small int
}

func (v *scalars) snap(c *Codec) {
	c.Section("scalars")
	c.U8(&v.u8)
	c.U32(&v.u32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Bool(&v.t)
	c.Bool(&v.f)
	c.F64(&v.f64)
	c.String(&v.s)
	c.String(&v.e)
	c.Blob(&v.blob)
	AsI64(c, &v.n)
	AsU8(c, &v.small)
}

func TestRoundTrip(t *testing.T) {
	in := scalars{
		u8: 0xab, u32: 0xdeadbeef, u64: 0x0123456789abcdef, i64: -42,
		t: true, f64: 3.14159, s: "hello, snapshot", blob: []byte{1, 2, 3},
		n: -7, small: 200,
	}
	w := NewWriter()
	if err := w.Header("test"); err != nil {
		t.Fatal(err)
	}
	in.snap(w)

	r := NewReader(w.Bytes())
	if err := r.Header("test"); err != nil {
		t.Fatalf("Header: %v", err)
	}
	out := scalars{f: true, e: "stale", blob: []byte("stale")}
	out.snap(r)
	if err := r.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if out.u8 != in.u8 || out.u32 != in.u32 || out.u64 != in.u64 || out.i64 != in.i64 ||
		out.t != in.t || out.f != in.f || out.f64 != in.f64 || out.s != in.s || out.e != in.e ||
		string(out.blob) != string(in.blob) || out.n != in.n || out.small != in.small {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

// TestBlobMatchesString pins that Blob and String share one wire layout.
func TestBlobMatchesString(t *testing.T) {
	s := "payload"
	b := []byte(s)
	ws, wb := NewWriter(), NewWriter()
	ws.String(&s)
	wb.Blob(&b)
	if string(ws.Bytes()) != string(wb.Bytes()) {
		t.Fatalf("Blob % x differs from String % x", wb.Bytes(), ws.Bytes())
	}
}

func TestStickyError(t *testing.T) {
	w := NewWriter()
	v := uint32(7)
	w.U32(&v)
	r := NewReader(w.Bytes())
	var u uint64 = 99
	r.U64(&u) // truncated
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	if u != 0 {
		t.Errorf("failed read stored %d, want 0", u)
	}
	first := r.Err()
	var s string
	r.U64(&u)
	r.String(&s)
	if r.Err() != first {
		t.Error("error was not sticky")
	}
	got := uint32(5)
	if r.U32(&got); got != 0 {
		t.Errorf("post-error read = %d, want 0", got)
	}
}

func TestSectionMismatch(t *testing.T) {
	w := NewWriter()
	w.Section("alpha")
	r := NewReader(w.Bytes())
	r.Section("beta")
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "beta") {
		t.Fatalf("section mismatch error = %v", r.Err())
	}
}

func TestHeaderRejectsWrongKind(t *testing.T) {
	w := NewWriter()
	if err := w.Header("scenario"); err != nil {
		t.Fatal(err)
	}
	if err := NewReader(w.Bytes()).Header("engine"); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	if err := NewReader([]byte("not a snapshot at all")).Header("x"); err == nil {
		t.Fatal("expected magic error")
	}
	if err := NewReader(nil).Header("x"); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestNaNCanonical(t *testing.T) {
	w1, w2 := NewWriter(), NewWriter()
	a, b := math.NaN(), math.Float64frombits(0x7ff8000000000001) // NaN with a payload bit
	w1.F64(&a)
	w2.F64(&b)
	b1, b2 := w1.Bytes(), w2.Bytes()
	if string(b1) != string(b2) {
		t.Fatalf("NaN encodings differ: % x vs % x", b1, b2)
	}
	var v float64
	if NewReader(b1).F64(&v); !math.IsNaN(v) {
		t.Errorf("decoded NaN = %v", v)
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	v := true
	r.Bool(&v)
	if r.Err() == nil {
		t.Fatal("expected invalid bool error")
	}
	if v {
		t.Error("invalid bool byte decoded as true")
	}
}

// TestShapeAndLen pins the two count helpers: Shape rejects a count the
// rebuilt graph does not have, Len rejects a count the unread bytes cannot
// hold, and Slice resizes to the decoded length.
func TestShapeAndLen(t *testing.T) {
	w := NewWriter()
	w.Shape("locks", 3)
	items := []uint64{10, 20}
	Slice(w, &items)
	for i := range items {
		w.U64(&items[i])
	}

	r := NewReader(w.Bytes())
	r.Shape("locks", 4)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "snapshot has 3 locks, have 4") {
		t.Fatalf("Shape mismatch error = %v", r.Err())
	}

	r = NewReader(w.Bytes())
	r.Shape("locks", 3)
	var got []uint64
	Slice(r, &got)
	for i := range got {
		r.U64(&got[i])
	}
	if r.Err() != nil || len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("Slice round trip = %v, %v", got, r.Err())
	}

	huge := NewWriter()
	n := 1 << 30
	huge.Len(&n)
	r = NewReader(huge.Bytes())
	m := 0
	if r.Len(&m); r.Err() == nil || m != 0 {
		t.Fatalf("corrupt count: n=%d err=%v", m, r.Err())
	}
}

// TestWriterLeavesValues pins that saving never writes through the
// pointers it is handed: a checkpoint may be encoded concurrently.
func TestWriterLeavesValues(t *testing.T) {
	v := scalars{u8: 1, n: 5, small: 300, f64: math.NaN()}
	v.snap(NewWriter())
	if v.small != 300 || v.n != 5 || !math.IsNaN(v.f64) {
		t.Fatalf("writer mutated its input: %+v", v)
	}
}

func TestHashBytesStable(t *testing.T) {
	// Pinned FNV-1a vectors: the digest feeds golden files, so its value
	// must never drift.
	if got := HashBytes(nil); got != 0xcbf29ce484222325 {
		t.Errorf("HashBytes(nil) = %s", got)
	}
	if got := HashBytes([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Errorf("HashBytes(a) = %s", got)
	}
}
