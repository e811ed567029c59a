package store

import (
	"fmt"
	"os"
	"path/filepath"

	"urel/internal/core"
)

// ShardSpec records, inside a shard directory's manifest, which slice
// of a larger catalog the directory holds. Rows of the relations named
// in Sharded are hash-partitioned by tuple id (ShardHash); every other
// relation is replicated in full to every shard so single-shard plans
// can join against it locally. The world table is replicated too —
// ws-descriptors travel with each shard's rows, but the variables they
// reference live in W, and W is small (it never grows with data volume,
// only with uncertainty).
type ShardSpec struct {
	// Index in [0, Count) identifies this shard.
	Index int `json:"index"`
	// Count is the total number of shards in the catalog.
	Count int `json:"count"`
	// Sharded lists the relations whose rows are hash-partitioned; all
	// other relations are full replicas.
	Sharded []string `json:"sharded"`
}

// ShardHash maps a tuple id to its owning shard. The function is part
// of the on-disk contract: manifests written by ShardedSave stay valid
// only while every reader agrees on it, so it must never change for
// existing data. Fibonacci hashing spreads the sequential tids the DML
// path allocates evenly across shards.
func ShardHash(tid int64, count int) int {
	if count <= 1 {
		return 0
	}
	h := uint64(tid) * 0x9e3779b97f4a7c15
	return int(h % uint64(count))
}

// ShardedSave splits db across len(dirs) shard directories: relations
// named in sharded keep only the rows ShardHash assigns to each shard,
// every other relation and the world table are copied whole, and each
// manifest carries the ShardSpec plus the GLOBAL per-relation MaxTID —
// so any shard's writer allocates fresh tuple ids above every shard's
// rows and new ids never collide across the cluster. Each directory is
// a complete, independently openable catalog (Open/OpenCached/txn.Open
// all work on it unchanged).
func ShardedSave(db *core.UDB, dirs []string, sharded []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("store: sharded save: no shard directories")
	}
	isSharded := map[string]bool{}
	for _, name := range sharded {
		if db.Rels[name] == nil {
			return fmt.Errorf("store: sharded save: unknown relation %q", name)
		}
		isSharded[name] = true
	}

	worlds := EncodeWorldTable(db.W)
	// Global MaxTID per relation, computed once over the unsplit rows.
	maxTID := map[string]int64{}
	loaded := map[string][][]core.URow{}
	for _, relName := range db.RelNames() {
		rs := db.Rels[relName]
		parts := make([][]core.URow, len(rs.Parts))
		for pi, p := range rs.Parts {
			rows := p.Rows
			if p.Back != nil {
				var err error
				if rows, err = p.Back.Load(); err != nil {
					return fmt.Errorf("store: sharded save %s: %w", p.Name, err)
				}
			}
			parts[pi] = rows
			for _, r := range rows {
				if r.TID > maxTID[relName] {
					maxTID[relName] = r.TID
				}
			}
		}
		loaded[relName] = parts
	}

	for si, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, WorldsName), worlds); err != nil {
			return fmt.Errorf("store: sharded save world table: %w", err)
		}
		man := &Manifest{
			Version: FormatVersion,
			Shard:   &ShardSpec{Index: si, Count: len(dirs), Sharded: append([]string(nil), sharded...)},
		}
		for ri, relName := range db.RelNames() {
			rs := db.Rels[relName]
			mr := ManifestRel{Name: relName, Attrs: rs.Attrs, MaxTID: maxTID[relName], ExistenceComplete: rs.ExistenceComplete}
			for pi, p := range rs.Parts {
				rows := loaded[relName][pi]
				if isSharded[relName] {
					mine := make([]core.URow, 0, len(rows)/len(dirs)+1)
					for _, r := range rows {
						if ShardHash(r.TID, len(dirs)) == si {
							mine = append(mine, r)
						}
					}
					rows = mine
				}
				file := partFileName(ri, pi)
				width, err := WritePartition(filepath.Join(dir, file), rows, len(p.Attrs), DefaultSegmentRows)
				if err != nil {
					return fmt.Errorf("store: sharded save %s: %w", p.Name, err)
				}
				// No index runs at save time (see Save); when urgen
				// declares indexes, each shard directory builds runs over
				// exactly its own rows, so indexes stay shard-local.
				mr.Parts = append(mr.Parts, ManifestPart{
					Name: p.Name, Attrs: p.Attrs, File: file, Rows: len(rows), Width: width,
				})
			}
			man.Relations = append(man.Relations, mr)
		}
		if err := WriteManifest(dir, man); err != nil {
			return err
		}
	}
	return nil
}
