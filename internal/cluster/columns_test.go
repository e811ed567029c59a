package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// columnsShard fakes a shard node that answers every /query with body.
func columnsShard(body string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
}

// TestScatterRejectsDisagreeingColumns: the merges line shard rows up
// by column, so a shard that answers other columns than the first one
// is a 502 naming it — in possible mode, where rows of another width
// would otherwise join the union, and in the bounds merge, where they
// would share one map of answer tuples.
func TestScatterRejectsDisagreeingColumns(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, other string
		scatter      func(*Coordinator) *Error
	}{
		{"possible",
			`{"columns": ["a"], "rows": [[1]]}`,
			`{"columns": ["a", "b"], "rows": [[1, 2]]}`,
			func(c *Coordinator) *Error {
				_, err := c.ScatterRows([]int{0, 1}, QueryRequest{SQL: "possible select a from s"}, true, nil)
				return err
			}},
		{"bounds",
			`{"columns": ["a", "_p_lo", "_p_hi"], "rows": [[1, 0.5, 0.5]]}`,
			`{"columns": ["a", "b", "_p_lo", "_p_hi"], "rows": [[1, 2, 0.5, 0.5]]}`,
			func(c *Coordinator) *Error {
				_, err := c.ScatterBounds([]int{0, 1}, QueryRequest{SQL: "conf bounds select a from s"}, nil)
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0, s1 := columnsShard(tc.first), columnsShard(tc.other)
			defer s0.Close()
			defer s1.Close()
			spec := CatalogSpec{Sharded: []string{"s"}, Shards: []ShardNodes{
				{Name: "s0", Nodes: []string{s0.URL}}, {Name: "s1", Nodes: []string{s1.URL}}}}
			c, err := NewCoordinator("demo", spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			serr := tc.scatter(c)
			if serr == nil || serr.Status != http.StatusBadGateway || serr.Shard != "s1" || !strings.Contains(serr.Msg, `"s1"`) {
				t.Fatalf("shards answering different columns: got %v, want a 502 naming shard s1", serr)
			}
		})
	}
}
