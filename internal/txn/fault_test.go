package txn

import (
	"errors"
	"strings"
	"testing"

	"urel/internal/store"
)

// TestWALFaultRollback: an injected WAL append or fsync failure fails
// the statement, leaves no trace in the live snapshot, and — because
// the partial frame is rolled back — leaves nothing to replay: the
// reopened store matches the reference that only saw the acknowledged
// writes.
func TestWALFaultRollback(t *testing.T) {
	base := fixtureDB()
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

	exec(t, d, ref, "insert into s values (100, 0)")
	requireSame(t, d, ref, "healthy write before faults")

	for _, op := range []string{"append", "sync"} {
		op := op
		restore := store.SetIOFaultHook(func(o, path string) error {
			if o == op {
				return errors.New("injected " + op + " failure")
			}
			return nil
		})
		_, werr := d.Exec("insert into s values (600, 6)")
		restore()
		if werr == nil || !strings.Contains(werr.Error(), "injected "+op) {
			t.Fatalf("write under %s fault: err = %v, want injected failure", op, werr)
		}
		requireSame(t, d, ref, "after injected "+op+" failure")
	}

	// The fault was transient: with the hook cleared the write path
	// recovers without a restart.
	exec(t, d, ref, "insert into s values (601, 7)")
	exec(t, d, ref, "delete from s where x = 100")
	requireSame(t, d, ref, "after recovery")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing unacknowledged replays: the reopened store equals the
	// reference exactly.
	d2, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	requireSame(t, d2, ref, "after reopen")
}
