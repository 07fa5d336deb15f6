package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"agilepaging/internal/pagetable"
)

// packOps encodes a fixed op list into a completed packed stream.
func packOps(ops []Op) *packedStream {
	ps := newPackedStream()
	ps.encodeAll(NewFromOps("", ops))
	return ps
}

// unpackAll decodes every chunk of a completed packed stream into one slice.
func unpackAll(t testing.TB, ps *packedStream) []Op {
	t.Helper()
	var out []Op
	buf := chunkBufPool.Get().(*[PackedChunkOps]Op)
	defer chunkBufPool.Put(buf)
	for _, ch := range ps.chunks {
		ops, err := decodeChunkInto(ch.data, buf, ch.ops)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, append([]Op(nil), ops...)...)
	}
	return out
}

// TestPackedRoundTripProfiles is the bit-identity acceptance check: for
// every registered profile and both page sizes, the packed stream decodes
// to exactly the ops a fresh generator produces.
func TestPackedRoundTripProfiles(t *testing.T) {
	const accesses = 20_000
	for _, prof := range Profiles() {
		for _, ps := range []pagetable.Size{pagetable.Size4K, pagetable.Size2M} {
			want := Collect(New(prof, ps, accesses, 42), -1)
			packed := packOps(want)
			got := unpackAll(t, packed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/%v: packed round trip differs (%d vs %d ops)", prof.Name, ps, len(want), len(got))
			}
			if packed.numOps != len(want) {
				t.Fatalf("%s/%v: numOps %d, want %d", prof.Name, ps, packed.numOps, len(want))
			}
			// The whole point: packed must be far below 64 B/op.
			if perOp := float64(packed.bytes) / float64(len(want)); perOp > 16 {
				t.Errorf("%s/%v: %0.1f encoded bytes/op, want well under 64", prof.Name, ps, perOp)
			}
		}
	}
}

// TestPackedRoundTripExtremes drives every field of Op through hostile and
// extreme values: all OpKinds plus out-of-nibble kinds, max/min VAs with
// wraparound deltas, negative PIDs/cores/sizes, and max Len/N.
func TestPackedRoundTripExtremes(t *testing.T) {
	ops := []Op{
		{},
		{Kind: OpAccess, VA: math.MaxUint64, Write: true, Fetch: true},
		{Kind: OpAccess, VA: 0}, // delta -MaxUint64: wraparound
		{Kind: OpKind(14), VA: 1},
		{Kind: OpKind(15), VA: 2}, // escape boundary
		{Kind: OpKind(255), VA: 1 << 63},
		{Kind: OpKind(-1), VA: 4096, PID: -7, Core: -3},
		{Kind: OpMmap, VA: 0xFFFF_FFFF_F000, Len: math.MaxUint64, Size: pagetable.Size(math.MaxInt64), N: math.MaxInt},
		{Kind: OpMunmap, Len: 1, Size: pagetable.Size(math.MinInt64), N: math.MinInt},
		{Kind: OpCtxSwitch, PID: math.MaxInt, Core: math.MinInt},
		{Kind: OpCtxSwitch, PID: math.MinInt, Core: math.MaxInt},
		{Kind: OpCreateProcess, N: 1 << 40},
		{Kind: OpMarkCOW, VA: 1, Write: true},
		{Kind: OpReclaim, N: -12345},
		{Kind: OpAccess, VA: 1<<63 - 1},
		{Kind: OpAccess, VA: 1 << 63}, // delta exactly MinInt64
	}
	got := unpackAll(t, packOps(ops))
	if !reflect.DeepEqual(ops, got) {
		for i := range ops {
			if i < len(got) && ops[i] != got[i] {
				t.Errorf("op %d: encoded %+v decoded %+v", i, ops[i], got[i])
			}
		}
		t.Fatal("extreme-value round trip differs")
	}
}

// TestPackedChunkBoundaries pins behaviour at exact chunk-size lengths.
func TestPackedChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, PackedChunkOps - 1, PackedChunkOps, PackedChunkOps + 1, 2*PackedChunkOps + 7} {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpAccess, VA: rng.Uint64(), Write: i%3 == 0, PID: i % 5, Core: i % 2}
		}
		packed := packOps(ops)
		wantChunks := (n + PackedChunkOps - 1) / PackedChunkOps
		if len(packed.chunks) != wantChunks {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(packed.chunks), wantChunks)
		}
		got := unpackAll(t, packed)
		if n == 0 {
			if len(got) != 0 {
				t.Fatalf("n=0 decoded %d ops", len(got))
			}
			continue
		}
		if !reflect.DeepEqual(ops, got) {
			t.Fatalf("n=%d: round trip differs", n)
		}
	}
}

// TestDecodeChunkHostile feeds malformed bytes straight to the chunk
// decoder: every path must return errCorruptChunk, never panic or succeed.
func TestDecodeChunkHostile(t *testing.T) {
	buf := chunkBufPool.Get().(*[PackedChunkOps]Op)
	defer chunkBufPool.Put(buf)
	valid := packOps([]Op{{Kind: OpAccess, VA: 123, PID: 1}, {Kind: OpMmap, VA: 456, Len: 9}}).chunks[0]
	cases := map[string]struct {
		data []byte
		want int
	}{
		"empty with want":     {nil, 1},
		"negative want":       {valid.data, -1},
		"oversize want":       {valid.data, PackedChunkOps + 1},
		"count mismatch low":  {valid.data, 1},
		"count mismatch high": {valid.data, 3},
		"truncated":           {valid.data[:len(valid.data)-1], valid.ops},
		"trailing garbage":    {append(append([]byte(nil), valid.data...), 0x00), valid.ops},
		"unterminated varint": {[]byte{byte(OpAccess) | flagCtx, 0x80, 0x80}, 1},
		"varint overflow":     {[]byte{byte(OpAccess), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, 1},
		"escape kind cut":     {[]byte{kindEscape}, 1},
		"extra fields cut":    {[]byte{byte(OpMmap) | flagExtra, 0x05}, 1},
	}
	for name, tc := range cases {
		if _, err := decodeChunkInto(tc.data, buf, tc.want); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestPackedDecodeZeroAllocs guards the steady-state replay contract: a
// reader re-walking an already-generated stream performs zero allocations
// per chunk, both through the raw chunk decoder and through a Reader.
// The name matches the CI alloc-guard pattern (ZeroAllocs).
func TestPackedDecodeZeroAllocs(t *testing.T) {
	freshCache(t, DefaultStreamCacheBytes)
	prof := streamProfile("zeroalloc")
	s := SharedStream(prof, pagetable.Size4K, 20_000, 4)
	s.PackedBytes() // generation complete

	// Raw chunked decode into a pooled buffer.
	packed := s.ps
	buf := chunkBufPool.Get().(*[PackedChunkOps]Op)
	defer chunkBufPool.Put(buf)
	avg := testing.AllocsPerRun(10, func() {
		for _, ch := range packed.chunks {
			if _, err := decodeChunkInto(ch.data, buf, ch.ops); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("chunked decode allocates %.1f times per pass, want 0", avg)
	}

	// Reader replay, after one warm pass binds the pooled buffer.
	r := s.Reader()
	defer r.Close()
	n := 0
	for {
		ops, ok := r.Next()
		if !ok {
			break
		}
		n += len(ops)
	}
	if n != s.Len() {
		t.Fatalf("warm pass yielded %d ops, want %d", n, s.Len())
	}
	avg = testing.AllocsPerRun(10, func() {
		r.Reset()
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	})
	if avg != 0 {
		t.Errorf("replay allocates %.1f times per pass, want 0", avg)
	}
}

// FuzzPackedRoundTrip throws arbitrary op field values at the encoder and
// requires exact round-tripping.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), false, false, 0, 0, uint64(0), int64(0), 0, uint64(1))
	f.Add(int64(1), uint64(4096), true, false, 1, 0, uint64(0), int64(0), 0, uint64(99))
	f.Add(int64(255), uint64(math.MaxUint64), true, true, -1, -1, uint64(math.MaxUint64), int64(math.MinInt64), math.MinInt, uint64(7))
	f.Add(int64(-9), uint64(1<<63), false, true, math.MaxInt, math.MinInt, uint64(3), int64(math.MaxInt64), math.MaxInt, uint64(5))
	f.Fuzz(func(t *testing.T, kind int64, va uint64, write, fetch bool,
		pid, core int, length uint64, size int64, n int, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		count := 1 + int(seed%200)
		ops := make([]Op, count)
		for i := range ops {
			// First op uses the fuzzed fields verbatim; the rest perturb
			// them so deltas and ctx changes both get exercised.
			ops[i] = Op{
				Kind: OpKind(kind + int64(i%3)), VA: va + uint64(i)*uint64(rng.Intn(1<<20)),
				Write: write != (i%2 == 0), Fetch: fetch,
				PID: pid + i%4, Core: core,
				Len: length, Size: pagetable.Size(size), N: n,
			}
			if i%5 == 4 {
				ops[i].Len, ops[i].Size, ops[i].N = 0, 0, 0
			}
		}
		got := unpackAll(t, packOps(ops))
		if !reflect.DeepEqual(ops, got) {
			t.Fatal("fuzzed round trip differs")
		}
	})
}

func BenchmarkPackedEncode(b *testing.B) {
	prof := streamProfile("bench-encode")
	ops := Collect(New(prof, pagetable.Size4K, 50_000, 42), -1)
	b.SetBytes(int64(len(ops)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packOps(ops)
	}
}

func BenchmarkPackedDecode(b *testing.B) {
	prof := streamProfile("bench-decode")
	packed := packOps(Collect(New(prof, pagetable.Size4K, 50_000, 42), -1))
	buf := chunkBufPool.Get().(*[PackedChunkOps]Op)
	defer chunkBufPool.Put(buf)
	b.SetBytes(int64(packed.numOps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range packed.chunks {
			if _, err := decodeChunkInto(ch.data, buf, ch.ops); err != nil {
				b.Fatal(err)
			}
		}
	}
}
