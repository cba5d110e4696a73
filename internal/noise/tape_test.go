package noise

import (
	"math/rand"
	"sync"
	"testing"
)

// resetTapes empties the process-wide tape cache, so the next run starts
// cold.
func resetTapes() {
	streamTapes.mu.Lock()
	defer streamTapes.mu.Unlock()
	streamTapes.tapes = make(map[int64]*tape, tapeBound)
	streamTapes.next = 0
}

// cachedTapes is how many tapes the process-wide cache holds.
func cachedTapes() int {
	streamTapes.mu.Lock()
	defer streamTapes.mu.Unlock()
	return len(streamTapes.tapes)
}

// replayRand returns a rand.Rand replaying stream seed from its tape.
func replayRand(seed int64) *rand.Rand {
	rng := rand.New(new(replaySource))
	rng.Seed(seed)
	return rng
}

// compareDraws draws n values from want and got, cycling through every
// kind of draw a trajectory makes plus the raw Int63 and Uint64, and
// reports the first difference.
func compareDraws(t *testing.T, seed int64, n int, want, got *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
		case 1:
			if w, g := want.Intn(3), got.Intn(3); w != g {
				t.Fatalf("seed %d draw %d: Intn(3) %d, math/rand %d", seed, i, g, w)
			}
		case 2:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		default:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

func TestTapeReplayMatchesMathRand(t *testing.T) {
	t.Run("seeds", func(t *testing.T) {
		// 1,200 stream seeds (more than tapeBound, so early tapes are
		// evicted while later ones are recorded). Every seed is read twice:
		// the first reader records the tape, the second replays it and
		// reads on past its end. Every 100th seed also reads past
		// tapeMaxLen onto the private generator.
		for i := 0; i < 1200; i++ {
			seed := streamSeed(int64(i/100), int64(i%100))
			n := 150
			if i%100 == 0 {
				n = tapeMaxLen + 300
			}
			compareDraws(t, seed, n, rand.New(rand.NewSource(seed)), replayRand(seed))
			compareDraws(t, seed, 2*n, rand.New(rand.NewSource(seed)), replayRand(seed))
			if c := cachedTapes(); c > tapeBound {
				t.Fatalf("cache holds %d tapes, bound %d", c, tapeBound)
			}
		}
	})
	t.Run("reseed", func(t *testing.T) {
		// One source serving many streams in turn, as a trajectory chunk
		// uses it, including a reseed to a stream read moments ago.
		rng := rand.New(new(replaySource))
		for _, seed := range []int64{5, -3, 5, 0, 1 << 62, 5} {
			rng.Seed(seed)
			compareDraws(t, seed, 97, rand.New(rand.NewSource(seed)), rng)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		// Several goroutines read and extend one fresh tape at once, each
		// to its own depth; run under -race this also checks that snapshot
		// reads never overlap an extension's writes.
		resetTapes()
		const seed = 424242
		ref := rand.New(rand.NewSource(seed))
		want := make([]int64, tapeMaxLen+200)
		for i := range want {
			want[i] = ref.Int63()
		}
		var wg sync.WaitGroup
		errs := make([]int, 8)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = -1
				rng := replayRand(seed)
				for i := 0; i < 40+g*(len(want)-40)/7; i++ {
					if rng.Int63() != want[i] {
						errs[g] = i
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, at := range errs {
			if at >= 0 {
				t.Errorf("goroutine %d: draw %d differs from math/rand", g, at)
			}
		}
	})
}

func TestTapeCacheBounded(t *testing.T) {
	resetTapes()
	const extra = 300
	for i := int64(0); i < tapeBound+extra; i++ {
		streamTapes.get(i)
		if c := cachedTapes(); c > tapeBound {
			t.Fatalf("after %d seeds the cache holds %d tapes, bound %d", i+1, c, tapeBound)
		}
	}
	// First in, first out: the oldest seeds are gone, the newest stay.
	streamTapes.mu.Lock()
	defer streamTapes.mu.Unlock()
	for i := int64(0); i < tapeBound+extra; i++ {
		if _, ok := streamTapes.tapes[i]; ok != (i >= extra) {
			t.Fatalf("seed %d cached = %v after %d insertions", i, ok, tapeBound+extra)
		}
	}
}

// FuzzTapeReplay drives a replaySource and math/rand through the same
// read pattern and requires identical draws. Each pattern byte picks a
// draw (low three bits) and an argument (high five bits): Float64,
// Intn(3), Int63, Uint64, Intn(arg+1), a run of (arg+1)·97 Int63 draws
// (which reaches past tapeMaxLen in a few bytes), a restart of the same
// stream, or a switch to the next stream.
func FuzzTapeReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 0, 1})
	f.Add(int64(-7), []byte{5 | 31<<3, 5 | 31<<3, 0, 1, 2, 3, 6, 0, 1, 7, 2})
	f.Add(streamSeed(1, 0), []byte{0, 0, 1, 0, 0, 1, 0, 5 | 2<<3, 6, 0, 0, 1})
	f.Add(int64(0), []byte{4 | 31<<3, 7, 7, 5 | 10<<3, 3, 6, 5 | 31<<3, 5 | 31<<3, 0})
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		if len(pattern) > 256 {
			pattern = pattern[:256]
		}
		want := rand.New(rand.NewSource(seed))
		got := replayRand(seed)
		for i, b := range pattern {
			arg := int(b >> 3)
			switch b & 7 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("op %d: Float64 %v, math/rand %v", i, g, w)
				}
			case 1:
				if w, g := want.Intn(3), got.Intn(3); w != g {
					t.Fatalf("op %d: Intn(3) %d, math/rand %d", i, g, w)
				}
			case 2:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("op %d: Int63 %d, math/rand %d", i, g, w)
				}
			case 3:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("op %d: Uint64 %d, math/rand %d", i, g, w)
				}
			case 4:
				if w, g := want.Intn(arg+1), got.Intn(arg+1); w != g {
					t.Fatalf("op %d: Intn(%d) %d, math/rand %d", i, arg+1, g, w)
				}
			case 5:
				for k := 0; k < (arg+1)*97; k++ {
					if w, g := want.Int63(), got.Int63(); w != g {
						t.Fatalf("op %d: Int63 run draw %d: %d, math/rand %d", i, k, g, w)
					}
				}
			case 6:
				want.Seed(seed)
				got.Seed(seed)
			default:
				seed++
				want.Seed(seed)
				got.Seed(seed)
			}
		}
	})
}
