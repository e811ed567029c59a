package txn

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/sqlparse"
	"urel/internal/store"
)

// genStmt produces a random DML statement over the fixture schema, of
// one of its first kinds kinds (at most stmtKinds). INSERT ... SELECT
// sticks to single-relation sources so row order — and with it
// tuple-id assignment — is deterministic across the persistent store
// and the in-memory reference. The first six kinds insert, or delete
// by a key, which keeps r's existence-complete bit unless the delete
// matches tuple 2's alternatives. The updates clear it, and so do the
// last two kinds, which select on one alternative of an uncertain field
// (tuple 3's c, tuple 2's b): the DELETE leaves u_r_bc rows of a tuple
// no world holds any more.
func genStmt(rng *rand.Rand, kinds int) string {
	v := func(n int) int { return rng.Intn(n) }
	switch v(kinds) {
	case 0:
		return fmt.Sprintf("insert into r values (%d, %d, %d)", v(50), v(50), v(50))
	case 1:
		return fmt.Sprintf("insert into r (a, b) values (%d, %d), (%d, %d)", v(50), v(50), v(50), v(50))
	case 2:
		return fmt.Sprintf("insert into s values (%d, %d)", v(50), v(50))
	case 3:
		return fmt.Sprintf("insert into s (x, y) select y, x from s where x < %d", v(30))
	case 4:
		return fmt.Sprintf("delete from r where a = %d", v(50))
	case 5:
		return fmt.Sprintf("delete from s where x < %d", v(10))
	case 6:
		return fmt.Sprintf("update r set b = %d where a < %d", v(50), v(30))
	case 7:
		return fmt.Sprintf("update r set c = %d, a = %d where b < %d", v(50), v(50), v(30))
	case 8:
		return fmt.Sprintf("delete from r where c = %d", 300+v(4))
	default:
		return fmt.Sprintf("update r set a = %d where b = %d", v(50), 20+v(2))
	}
}

// stmtKinds is the number of statement kinds genStmt knows.
const stmtKinds = 10

// TestRoundTripProperty is the acceptance-criteria proof: randomized
// DML interleaved with flushes, compactions, and reopens must leave
// the persistent store multiset-equal — partition by partition — to an
// in-memory database that applied the same statements, with the same
// existence-complete bits, after every step and after a final reopen;
// and its possible answers, certain answers and confidences, by both
// translations, must be the worlds' (requireSame). Odd seeds start with
// r's bit set, even ones with it clear; the DML clears it on the way.
func TestRoundTripProperty(t *testing.T) {
	checked := map[bool]int{}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := fixtureDB()
			base.Rels["r"].ExistenceComplete = seed%2 == 1
			refUDB := base.Clone()
			app, err := NewApplier(refUDB)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refDB{db: refUDB, app: app}
			dir := t.TempDir()
			if err := store.Save(base, dir); err != nil {
				t.Fatal(err)
			}
			d, err := Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()

			for i := 0; i < 60; i++ {
				switch r := rng.Intn(12); {
				case r == 0:
					if err := d.Flush(); err != nil {
						t.Fatalf("op %d flush: %v", i, err)
					}
				case r == 1:
					if err := d.Compact(); err != nil {
						t.Fatalf("op %d compact: %v", i, err)
					}
				case r == 2:
					if err := d.Close(); err != nil {
						t.Fatalf("op %d close: %v", i, err)
					}
					if d, err = Open(dir, Options{DisableAutoFlush: true}); err != nil {
						t.Fatalf("op %d reopen: %v", i, err)
					}
				default:
					// Odd seeds keep r's bit for a while first.
					kinds := stmtKinds
					if seed%2 == 1 && i < 30 {
						kinds = 6
					}
					sql := genStmt(rng, kinds)
					st, err := sqlparse.ParseStatement(sql)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					got, err := d.ExecStmt(st)
					if err != nil {
						t.Fatalf("op %d exec %s: %v", i, sql, err)
					}
					want, err := ref.app.Apply(st)
					if err != nil {
						t.Fatalf("op %d apply %s: %v", i, sql, err)
					}
					if got.Tuples != want.Tuples || got.ReprRows != want.ReprRows || got.Tombstones != want.Tombstones {
						t.Fatalf("op %d %s: store %+v vs reference %+v", i, sql, got, want)
					}
				}
				requireSame(t, d, ref, fmt.Sprintf("op %d", i))
				checked[ref.db.Rels["r"].ExistenceComplete]++
			}

			// Final: flush, compact, reopen, compare everything.
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			requireSame(t, d, ref, "final flush")
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			requireSame(t, d, ref, "final compact")
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d, err = Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, d, ref, "final reopen")

			// And the possible answers agree on a query touching every
			// partition of r.
			got := possRows(t, d.Snapshot(), core.Rel("r"))
			want := possRows(t, ref.db, core.Rel("r"))
			if len(got) != len(want) {
				t.Fatalf("possible answers diverged: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("possible answer %d: %q vs %q", i, got[i], want[i])
				}
			}
		})
	}
	t.Logf("steps checked with r's bit set: %d, clear: %d", checked[true], checked[false])
	if checked[true] < 10 || checked[false] < 10 {
		t.Errorf("steps checked with r's bit set: %d, clear: %d; want both", checked[true], checked[false])
	}
}

// TestCrashRecoveryProperty simulates kill -9 at arbitrary byte
// boundaries: after a random commit sequence (with occasional flushes
// and compactions), the current WAL is truncated at a random point —
// possibly mid-record — and the reopened state must equal an in-memory
// database that applied exactly the commits whose records survive
// whole. Torn tail records are discarded, committed-and-restated state
// is never lost.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := fixtureDB()
			dir := t.TempDir()
			if err := store.Save(base, dir); err != nil {
				t.Fatal(err)
			}
			d, err := Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}

			walPath := func() string {
				man, err := store.ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				return filepath.Join(dir, man.WAL)
			}
			walSize := func() int64 {
				st, err := os.Stat(walPath())
				if err != nil {
					t.Fatal(err)
				}
				return st.Size()
			}

			// durable: statements folded into segment files (or restated)
			// by a flush/compaction — they survive any WAL truncation.
			// pending: statements only in the current WAL, with the log
			// size after each.
			var durable, pending []sqlparse.Statement
			var sizes []int64
			baseSize := walSize()

			nOps := 25 + rng.Intn(15)
			for i := 0; i < nOps; i++ {
				switch r := rng.Intn(10); {
				case r == 0:
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
					durable = append(durable, pending...)
					pending, sizes = nil, nil
					baseSize = walSize()
				case r == 1:
					if err := d.Compact(); err != nil {
						t.Fatal(err)
					}
					durable = append(durable, pending...)
					pending, sizes = nil, nil
					baseSize = walSize()
				default:
					st, err := sqlparse.ParseStatement(genStmt(rng, stmtKinds))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := d.ExecStmt(st); err != nil {
						t.Fatal(err)
					}
					pending = append(pending, st)
					sizes = append(sizes, walSize())
				}
			}
			path := walPath()
			full := walSize()

			// Crash: no Close — just abandon the handles and truncate the
			// log somewhere between "no pending commit" and "all of them".
			cut := baseSize + rng.Int63n(full-baseSize+1)
			d.closeForCrashTest()
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}

			// Reference: the durable statements plus the pending prefix
			// whose records survive whole.
			surviving := 0
			for i, sz := range sizes {
				if sz <= cut {
					surviving = i + 1
				}
			}
			refUDB := base.Clone()
			app, err := NewApplier(refUDB)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range durable {
				if _, err := app.Apply(st); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range pending[:surviving] {
				if _, err := app.Apply(st); err != nil {
					t.Fatal(err)
				}
			}
			ref := &refDB{db: refUDB, app: app}

			d2, err := Open(dir, Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatalf("reopen after crash (cut %d of %d): %v", cut, full, err)
			}
			defer d2.Close()
			requireSame(t, d2, ref, fmt.Sprintf("crash at byte %d of %d (%d/%d pending commits survive)",
				cut, full, surviving, len(pending)))
		})
	}
}

// closeForCrashTest releases file handles without any graceful-close
// work (no WAL sync bookkeeping beyond what append already did) —
// the closest a test can get to SIGKILL while still being able to
// reopen the directory on all platforms.
func (d *DB) closeForCrashTest() {
	d.mu.Lock()
	d.closed = true
	close(d.quit)
	d.mu.Unlock()
	<-d.bgDone
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil {
		d.wal.CloseAbrupt()
	}
	d.closeHandlesLocked()
	// A real crash releases the flock with the process; the simulation
	// must too, or the reopen below would self-deadlock.
	d.lock.release()
}
