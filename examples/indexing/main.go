// Command indexing demonstrates persistent secondary indexes: snapshot
// an uncertain sensor catalog, declare an index over a value column
// with urel.CreateIndex (SQL: CREATE INDEX ON sensor(id)), and serve
// point lookups through the sorted-run index path instead of a scan.
package main

import (
	"fmt"
	"log"
	"os"

	"urel"
)

func main() {
	dir, err := os.MkdirTemp("", "urel-indexing")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The Persistence snippet's two uncertain readings, plus certain
	// readings of 1 000 sensors taken in turn, so each sensor's readings
	// lie in every segment and the zone maps cannot find them.
	db := urel.New()
	db.MustAddRelation("sensor", "id", "temp")
	x := db.W.NewBoolVar("x")
	u := db.MustAddPartition("sensor", "u_sensor", "id", "temp")
	u.Add(urel.D(urel.A(x, 1)), 1, urel.Int(1), urel.Float(21.5))
	u.Add(urel.D(urel.A(x, 2)), 1, urel.Int(1), urel.Float(24.0))
	for i := int64(2); i <= 5000; i++ {
		u.Add(nil, i, urel.Int(2+i%1000), urel.Float(20+float64(i%7)))
	}
	if err := urel.Save(db, dir); err != nil {
		log.Fatal(err)
	}

	rw, err := urel.OpenRW(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := urel.CreateIndex(rw, "sensor", "id"); err != nil {
		log.Fatal(err)
	}

	q := urel.Poss(urel.Select(urel.Rel("sensor"),
		urel.Eq(urel.Col("id"), urel.Const(urel.Int(702)))))
	rel, err := rw.Snapshot().EvalPoss(q, urel.Config{}) // equality probes the index
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("possible readings for sensor 702:\n%s", rel)
	if err := rw.Close(); err != nil {
		log.Fatal(err)
	}
}
