package main

import (
	"strings"
	"testing"
)

// fig5 is the paper's Figure 5: a cyclic three-way join whose schemes
// make every stream purgeable.
const fig5 = `
CREATE STREAM S1 (A INT, B INT);
CREATE STREAM S2 (B INT, C INT);
CREATE STREAM S3 (A INT, C INT);
DECLARE SCHEME S1 (_, +);
DECLARE SCHEME S2 (_, +);
DECLARE SCHEME S3 (+, _);
SELECT * FROM S1, S2, S3 WHERE S1.B = S2.B AND S2.C = S3.C AND S3.A = S1.A;
`

// auctionNoBid is Example 1 without a scheme on bid: nothing purges item.
const auctionNoBid = `
CREATE STREAM item (sellerid INT, itemid INT, name STRING, initialprice FLOAT);
CREATE STREAM bid (bidderid INT, itemid INT, increase FLOAT);
DECLARE SCHEME ON item (itemid);
SELECT item.itemid, bid.increase FROM item, bid WHERE item.itemid = bid.itemid;
`

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		script string
		code   int
		prefix string   // stdout starts with this
		want   []string // stdout contains each of these
	}{
		{name: "figure 5 safe", script: fig5, code: 0,
			prefix: "-- query 1 --\nSAFE: "},
		{name: "auction without bid scheme", script: auctionNoBid, code: 1,
			prefix: "-- query 1 --\nUNSAFE"},
		{name: "malformed", script: "CREATE STREAM s (a INT)", code: 2},
		{name: "no select", script: "CREATE STREAM s (a INT);", code: 2},
		{name: "missing file", args: []string{"no-such-script.sql"}, script: fig5, code: 2},
		{name: "verbose", args: []string{"-v"}, script: fig5, code: 0,
			want: []string{"punctuation graph:", "TPG transformation:"}},
		{name: "plans", args: []string{"-plans"}, script: fig5, code: 0,
			want: []string{"safe execution plans (1):"}},
		{name: "dot pg", args: []string{"-dot", "pg"}, script: fig5, code: 0, prefix: "digraph"},
		{name: "dot gpg", args: []string{"-dot", "gpg"}, script: fig5, code: 0, prefix: "digraph"},
		{name: "dot tpg", args: []string{"-dot", "tpg"}, script: fig5, code: 0, prefix: "digraph"},
		{name: "dot unknown", args: []string{"-dot", "xyz"}, script: fig5, code: 2},
		{name: "unknown flag", args: []string{"-sql"}, script: fig5, code: 2},
		{name: "two selects", script: fig5 + "SELECT S1.A FROM S3, S1, S2 WHERE S1.B = S2.B AND S2.C = S3.C AND S3.A = S1.A;\n", code: 0,
			want: []string{"-- query 1 --", "-- query 2 --"}},
		{name: "one unsafe of two", script: fig5 + "SELECT * FROM S1, S2 WHERE S1.B = S2.B;\n", code: 1,
			want: []string{"-- query 1 --\nSAFE", "-- query 2 --\nUNSAFE"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, strings.NewReader(tc.script), &stdout, &stderr)
			out := stdout.String()
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, out, stderr.String())
			}
			if code == 2 {
				if stderr.Len() == 0 {
					t.Error("invalid input must say why on stderr")
				}
				return
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr: %s", stderr.String())
			}
			if !strings.HasPrefix(out, tc.prefix) {
				t.Errorf("stdout does not start with %q:\n%s", tc.prefix, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
		})
	}
}
