package snap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

type kind uint8

type addr uint64

// record exercises every primitive and helper of the codec.
type record struct {
	u64    uint64
	u32    uint32
	u16    uint16
	u8     uint8
	neg    int
	pos    int
	yes    bool
	no     bool
	kind   kind
	addr   addr
	length int
	table  [3]uint64
	addrs  []addr
	empty  []addr
	counts map[int]int
	lines  map[addr]uint64
}

func (r *record) Snap(c *Codec) {
	c.U64(&r.u64)
	c.U32(&r.u32)
	c.U16(&r.u16)
	c.U8(&r.u8)
	c.Int(&r.neg)
	c.Int(&r.pos)
	c.Bool(&r.yes)
	c.Bool(&r.no)
	U8(c, &r.kind)
	U64(c, &r.addr)
	c.length(&r.length)
	if c.Table(len(r.table), "test: table") {
		for i := range r.table {
			c.U64(&r.table[i])
		}
	}
	Slice(c, &r.addrs, U64[addr])
	Slice(c, &r.empty, U64[addr])
	Map(c, r.counts, (*Codec).Int)
	Map(c, r.lines, (*Codec).U64)
}

func newRecord() *record {
	return &record{counts: map[int]int{}, lines: map[addr]uint64{}}
}

func sample() *record {
	return &record{
		u64:    0x0123456789abcdef,
		u32:    0xdeadbeef,
		u16:    0xbeef,
		u8:     0xa5,
		neg:    -7,
		pos:    1 << 40,
		yes:    true,
		kind:   3,
		addr:   0x400000,
		length: 5,
		table:  [3]uint64{1, 2, 3},
		addrs:  []addr{0x10, 0x20, 0x30},
		counts: map[int]int{5: 50, -2: 20, 0: -1},
		lines:  map[addr]uint64{0x80: 8, 0x40: 4, 0xffffffffffffffc0: 1},
	}
}

func encode(r *record) []byte {
	c := NewEncoder()
	r.Snap(c)
	if err := c.Err(); err != nil {
		panic(err)
	}
	return c.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	blob := encode(want)
	got := newRecord()
	// Decoding resizes slices to the stream's lengths.
	got.addrs = make([]addr, 7, 16)
	got.empty = make([]addr, 2)
	c := NewDecoder(blob)
	got.Snap(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Rest() != 0 {
		t.Fatalf("%d unread bytes", c.Rest())
	}
	if len(got.empty) != 0 {
		t.Fatalf("empty slice decoded to length %d", len(got.empty))
	}
	got.empty = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if again := encode(got); !bytes.Equal(again, blob) {
		t.Fatal("re-encoding the decoded record gives different bytes")
	}
}

// TestEncodingLeavesValues checks that encoding only reads its targets.
func TestEncodingLeavesValues(t *testing.T) {
	r := sample()
	encode(r)
	if !reflect.DeepEqual(r, sample()) {
		t.Fatalf("encoding changed the record: %+v", r)
	}
}

// TestLayout pins the little-endian byte layout of each primitive.
func TestLayout(t *testing.T) {
	c := NewEncoder()
	u64, u32, u16, u8 := uint64(0x0102030405060708), uint32(0x01020304), uint16(0x0102), uint8(0x01)
	neg, yes, no, k, a := -2, true, false, kind(9), addr(0x0a0b)
	c.U64(&u64)
	c.U32(&u32)
	c.U16(&u16)
	c.U8(&u8)
	c.Int(&neg)
	c.Bool(&yes)
	c.Bool(&no)
	U8(c, &k)
	U64(c, &a)
	want := []byte{
		8, 7, 6, 5, 4, 3, 2, 1,
		4, 3, 2, 1,
		2, 1,
		1,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1,
		0,
		9,
		0x0b, 0x0a, 0, 0, 0, 0, 0, 0,
	}
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("layout\ngot  % x\nwant % x", c.Bytes(), want)
	}
	if c.Rest() != 0 {
		t.Fatalf("encoder Rest = %d", c.Rest())
	}
}

// TestMapSortedKeys checks that a map's bytes do not depend on insertion
// order and list keys ascending (signed order for int keys).
func TestMapSortedKeys(t *testing.T) {
	a, b := map[int]int{}, map[int]int{}
	for i := -50; i < 50; i++ {
		a[i*7] = i
	}
	for i := 49; i >= -50; i-- {
		b[i*7] = i
	}
	ea, eb := NewEncoder(), NewEncoder()
	Map(ea, a, (*Codec).Int)
	Map(eb, b, (*Codec).Int)
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatal("map bytes depend on insertion order")
	}
	d := NewDecoder(ea.Bytes())
	var n int
	d.length(&n)
	prev := 0
	for i := 0; i < n; i++ {
		var k, v int
		d.Int(&k)
		d.Int(&v)
		if i > 0 && k <= prev {
			t.Fatalf("key %d after %d", k, prev)
		}
		prev = k
	}
	if d.Err() != nil || d.Rest() != 0 {
		t.Fatalf("err %v, %d unread", d.Err(), d.Rest())
	}
}

func TestTruncatedStream(t *testing.T) {
	blob := encode(sample())
	for _, n := range []int{0, 1, 7, 8, len(blob) / 2, len(blob) - 1} {
		r := newRecord()
		c := NewDecoder(blob[:n])
		r.Snap(c)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "truncated") {
			t.Fatalf("prefix %d/%d: err %v, want a truncation", n, len(blob), c.Err())
		}
	}
}

// TestStickyError checks that after the first error every primitive is a
// no-op that leaves its target unchanged, and that the first error wins.
func TestStickyError(t *testing.T) {
	c := NewDecoder(encode(sample()))
	c.Fail("first %d", 1)
	c.Fail("second")
	r := sample()
	r.Snap(c)
	if !reflect.DeepEqual(r, sample()) {
		t.Fatalf("decoding after an error changed the record: %+v", r)
	}
	if c.Err() == nil || c.Err().Error() != "first 1" {
		t.Fatalf("err %v, want the first", c.Err())
	}
	if c.Table(3, "test: table") {
		t.Fatal("Table reported success after an error")
	}

	// A decode error is sticky in the same way: the later reads see it.
	c = NewDecoder([]byte{1, 2, 3})
	var v uint64
	c.U64(&v)
	first := c.Err()
	w := uint8(42)
	c.U8(&w)
	if first == nil || c.Err() != first || w != 42 {
		t.Fatalf("err %v then %v, byte %d", first, c.Err(), w)
	}
}

func TestImplausibleLength(t *testing.T) {
	e := NewEncoder()
	huge := 1 << 40
	e.Int(&huge)
	for _, code := range map[string]func(*Codec){
		"length": func(c *Codec) { n := 0; c.length(&n) },
		"Slice":  func(c *Codec) { var s []uint64; Slice(c, &s, (*Codec).U64) },
		"Map":    func(c *Codec) { Map(c, map[int]int{}, (*Codec).Int) },
	} {
		c := NewDecoder(e.Bytes())
		code(c)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "implausible length") {
			t.Fatalf("err %v, want an implausible length", c.Err())
		}
	}
}

func TestTableMismatch(t *testing.T) {
	e := NewEncoder()
	if !e.Table(3, "test: table") {
		t.Fatal("encoding Table failed")
	}
	c := NewDecoder(e.Bytes())
	if c.Table(4, "test: table") {
		t.Fatal("Table accepted 3 entries for a table of 4")
	}
	if c.Err() == nil || c.Err().Error() != "test: table size 4, snapshot has 3" {
		t.Fatalf("err %v", c.Err())
	}
	c = NewDecoder(e.Bytes())
	if !c.Table(3, "test: table") || c.Err() != nil {
		t.Fatalf("Table rejected a matching length: %v", c.Err())
	}
}

func TestMapDecodeReplacesContents(t *testing.T) {
	e := NewEncoder()
	Map(e, map[int]uint64{1: 10}, (*Codec).U64)
	m := map[int]uint64{2: 20, 3: 30}
	c := NewDecoder(e.Bytes())
	Map(c, m, (*Codec).U64)
	if c.Err() != nil || !reflect.DeepEqual(m, map[int]uint64{1: 10}) {
		t.Fatalf("map %v, err %v", m, c.Err())
	}
}

func TestBoolDecodesNonzero(t *testing.T) {
	c := NewDecoder([]byte{0, 2})
	a, b := true, false
	c.Bool(&a)
	c.Bool(&b)
	if a || !b || c.Err() != nil {
		t.Fatalf("got %v %v, err %v", a, b, c.Err())
	}
}
