package cluster

// Property harness for the control-site join operators. One randomized
// corpus of binding-table pairs — spanning shared-variable layouts (one
// shared, reordered multi-shared, all shared, Cartesian, >4-column
// string-fallback keys), key distributions (uniform, heavily skewed,
// near-unique), empty sides and ragged rows — drives both operators
// against a nested-loop oracle:
//
//   - HashJoin is byte-identical to the oracle (exact rows, exact order);
//   - JoinStream emits exactly the oracle's row multiset at every batch
//     size and input interleaving.

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// nestedLoopOracle joins two tables the slow, obviously-correct way, in
// exactly the order the ordered operators must reproduce: for each left
// row in arrival order, its matching right rows in arrival order. It
// mirrors the documented semantics: rows missing a shared column have no
// join key and match nothing; missing output columns pad with NoID.
func nestedLoopOracle(left, right *match.Bindings) *match.Bindings {
	g := newJoinGeom(left.Vars, right.Vars)
	shared, rightOnly := g.shared, g.rightOnly
	out := &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	lw := len(left.Vars)
	for _, lr := range left.Rows {
		if !g.keyable(lr, true) {
			continue
		}
		for _, rr := range right.Rows {
			if !g.keyable(rr, false) {
				continue
			}
			eq := true
			for _, c := range shared {
				if lr[c.l] != rr[c.r] {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			row := make([]rdf.ID, lw+len(rightOnly))
			n := copy(row[:lw], lr)
			for i := n; i < lw; i++ {
				row[i] = rdf.NoID
			}
			for i, j := range rightOnly {
				if j < len(rr) {
					row[lw+i] = rr[j]
				} else {
					row[lw+i] = rdf.NoID
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// genJoinCase draws one randomized join instance: a variable layout, two
// tables with a chosen key distribution, optionally an empty side and
// optionally ragged rows.
func genJoinCase(rng *rand.Rand) (left, right *match.Bindings) {
	var lv, rv []string
	switch rng.Intn(5) {
	case 0:
		lv, rv = []string{"x", "y"}, []string{"y", "z"}
	case 1:
		lv, rv = []string{"a", "b", "c"}, []string{"c", "a", "d"}
	case 2:
		lv, rv = []string{"x", "y"}, []string{"x", "y"}
	case 3:
		lv, rv = []string{"x", "y"}, []string{"z", "w"} // Cartesian
	case 4:
		// Five shared columns: wider than maxPackedCols, exercising the
		// string-fallback keys.
		lv = []string{"a", "b", "c", "d", "e", "l0"}
		rv = []string{"e", "d", "c", "b", "a", "r0"}
	}
	draw := func(vars []string) *match.Bindings {
		b := &match.Bindings{Vars: vars}
		n := rng.Intn(50)
		if rng.Intn(8) == 0 {
			n = 0 // empty side
		}
		skew := rng.Intn(3)
		ragged := rng.Intn(4) == 0
		for i := 0; i < n; i++ {
			row := make([]rdf.ID, len(vars))
			for j := range row {
				switch skew {
				case 0:
					row[j] = rdf.ID(rng.Intn(6))
				case 1:
					// Heavy skew: ~80% of values collapse onto one key.
					if rng.Intn(5) > 0 {
						row[j] = 1
					} else {
						row[j] = rdf.ID(rng.Intn(8))
					}
				default:
					row[j] = rdf.ID(rng.Intn(512)) // near-unique
				}
			}
			if ragged && rng.Intn(8) == 0 {
				row = row[:rng.Intn(len(row))]
			}
			b.Rows = append(b.Rows, row)
		}
		return b
	}
	return draw(lv), draw(rv)
}

func rowsExactEqual(a, b [][]rdf.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runJoinStream feeds both tables through JoinStream in randomized batch
// sizes and collects the emitted rows in emission order.
func runJoinStream(rng *rand.Rand, left, right *match.Bindings) *match.Bindings {
	lch := make(chan *match.Bindings, 2)
	rch := make(chan *match.Bindings, 2)
	out := make(chan *match.Bindings, 4)
	go sendBatches(lch, left.Vars, left.Rows, 1+rng.Intn(16))
	go sendBatches(rch, right.Vars, right.Rows, 1+rng.Intn(16))
	go JoinStream(context.Background(), left.Vars, right.Vars, lch, rch, out)
	got := collect(out)
	if got == nil {
		got = &match.Bindings{Vars: JoinVars(left.Vars, right.Vars)}
	}
	return got
}

// TestJoinEquivalenceProperty is the join operators' correctness gate:
// HashJoin ≡ nested-loop oracle in exact row order, and JoinStream ≡
// oracle as a row multiset, across the generated corpus.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genJoinCase(rng)
		want := nestedLoopOracle(left, right)

		if got := HashJoin(left, right); !slices.Equal(got.Vars, want.Vars) || !rowsExactEqual(got.Rows, want.Rows) {
			t.Logf("seed %d: HashJoin diverged from oracle (%d rows vs %d)", seed, len(got.Rows), len(want.Rows))
			return false
		}

		// The stream's order depends on batch arrival; its multiset may
		// not. Two randomized interleavings per case.
		wm := multiset(want)
		for range 2 {
			got := runJoinStream(rng, left, right)
			if !slices.Equal(got.Vars, want.Vars) {
				t.Logf("seed %d: JoinStream vars %v, want %v", seed, got.Vars, want.Vars)
				return false
			}
			gm := multiset(got)
			if len(gm) != len(wm) {
				t.Logf("seed %d: JoinStream: %d distinct rows, want %d", seed, len(gm), len(wm))
				return false
			}
			for k, v := range wm {
				if gm[k] != v {
					t.Logf("seed %d: JoinStream: row %s count %d, want %d", seed, k, gm[k], v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
