package wsd

import (
	"math/rand"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// smallUDB builds a tiny normalized database for conversion tests.
func smallUDB(t *testing.T) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("r", "a", "b")
	x := db.W.MustNewVar("x", 1, 2)
	y := db.W.MustNewVar("y", 1, 2, 3)
	ua := db.MustAddPartition("r", "ua", "a")
	ub := db.MustAddPartition("r", "ub", "b")
	ua.Add(ws.MustDescriptor(ws.A(x, 1)), 1, engine.Int(10))
	ua.Add(ws.MustDescriptor(ws.A(x, 2)), 1, engine.Int(11))
	ub.Add(nil, 1, engine.Int(20))
	ua.Add(nil, 2, engine.Int(12))
	ub.Add(ws.MustDescriptor(ws.A(y, 1)), 2, engine.Int(21))
	ub.Add(ws.MustDescriptor(ws.A(y, 2)), 2, engine.Int(22))
	ub.Add(ws.MustDescriptor(ws.A(y, 3)), 2, engine.Int(23))
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFromNormalizedUDBRoundTrip(t *testing.T) {
	db := smallUDB(t)
	w, err := FromNormalizedUDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumWorlds() != 6 {
		t.Fatalf("want 6 worlds, got %d", w.NumWorlds())
	}
	sig1, err := db.WorldSetSignature(100)
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := w.WorldSetSignature(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig1) != len(sig2) {
		t.Fatalf("world-set sizes differ: %d vs %d", len(sig1), len(sig2))
	}
	for i := range sig1 {
		if sig1[i] != sig2[i] {
			t.Fatalf("world-set differs at %d", i)
		}
	}
	// Back to U-relations.
	back, err := w.ToUDB()
	if err != nil {
		t.Fatal(err)
	}
	sig3, err := back.WorldSetSignature(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig1 {
		if sig1[i] != sig3[i] {
			t.Fatalf("round trip changed the world-set at %d", i)
		}
	}
}

func TestFromNormalizedRejectsWide(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("r", "a")
	x := db.W.MustNewVar("x", 1, 2)
	y := db.W.MustNewVar("y", 1, 2)
	u := db.MustAddPartition("r", "u", "a")
	d, _ := ws.Descriptor{ws.A(x, 1)}.Union(ws.Descriptor{ws.A(y, 1)})
	u.Add(d, 1, engine.Int(1))
	if _, err := FromNormalizedUDB(db); err == nil {
		t.Fatal("descriptor width 2 must be rejected")
	}
}

func TestChainWorldSetsAgree(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		db := ChainUDB(n)
		w := ChainWSD(n)
		s1, err := db.WorldSetSignature(200)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := w.WorldSetSignature(200)
		if err != nil {
			t.Fatal(err)
		}
		if len(s1) != len(s2) {
			t.Fatalf("n=%d: world-set sizes differ: %d vs %d", n, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("n=%d: world-sets differ", n)
			}
		}
	}
}

func TestChainSelectBlowup(t *testing.T) {
	// Figure 7: σ_{A=B}(R) has a linear U-relational representation
	// (2n tuples) but its normalization — the WSD equivalent — needs
	// 2^n local worlds.
	for _, n := range []int{3, 5, 8} {
		res, err := ChainSelectResult(n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2*n {
			t.Fatalf("n=%d: U-relation answer should have 2n=%d tuples, got %d",
				n, 2*n, res.Len())
		}
		lw, err := NormalizedLocalWorlds(res)
		if err != nil {
			t.Fatal(err)
		}
		if lw != 1<<n {
			t.Fatalf("n=%d: normalized (WSD) representation needs 2^n=%d local worlds, got %d",
				n, 1<<n, lw)
		}
	}
}

func TestChainSelectGroundTruth(t *testing.T) {
	n := 4
	db := ChainUDB(n)
	q := core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.Col("b")))
	got, err := db.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.PossibleGroundTruth(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("chain select: translated %d vs ground truth %d", got.Len(), want.Len())
	}
}

func TestWSDSizeAccounting(t *testing.T) {
	w := ChainWSD(5)
	if w.Cells() != 5*2*2 {
		t.Fatalf("cells: got %d", w.Cells())
	}
	if w.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
	if w.Comps[0].LocalWorlds() != 2 {
		t.Fatal("local worlds")
	}
}

func TestRandomNormalizedRoundTrip(t *testing.T) {
	// Random normalized databases survive UDB -> WSD -> UDB.
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		db := core.NewUDB()
		db.MustAddRelation("r", "a", "b")
		nv := 1 + rng.Intn(3)
		vars := make([]ws.Var, nv)
		for i := range vars {
			dom := make([]ws.Val, 2+rng.Intn(2))
			for j := range dom {
				dom[j] = ws.Val(j + 1)
			}
			vars[i] = db.W.MustNewVar("", dom...)
		}
		ua := db.MustAddPartition("r", "ua", "a")
		ub := db.MustAddPartition("r", "ub", "b")
		for tid := int64(1); tid <= 3; tid++ {
			for _, p := range []*core.URelation{ua, ub} {
				if rng.Intn(3) == 0 {
					p.Add(nil, tid, engine.Int(int64(rng.Intn(5))))
					continue
				}
				x := vars[rng.Intn(nv)]
				for _, v := range db.W.Domain(x) {
					p.Add(ws.MustDescriptor(ws.A(x, v)), tid, engine.Int(int64(rng.Intn(5))))
				}
			}
		}
		w, err := FromNormalizedUDB(db)
		if err != nil {
			t.Fatal(err)
		}
		back, err := w.ToUDB()
		if err != nil {
			t.Fatal(err)
		}
		s1, err1 := db.WorldSetSignature(2000)
		s2, err2 := back.WorldSetSignature(2000)
		if err1 != nil || err2 != nil {
			continue
		}
		if len(s1) != len(s2) {
			t.Fatalf("iter %d: world-set sizes differ: %d vs %d", iter, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("iter %d: world-sets differ", iter)
			}
		}
	}
}
