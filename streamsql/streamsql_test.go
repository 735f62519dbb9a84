package streamsql

import (
	"strings"
	"testing"
)

const auctionScript = `
-- The paper's Example 1 as a script.
CREATE STREAM item (sellerid INT, itemid INT, name STRING, initialprice FLOAT);
CREATE STREAM bid (bidderid INT, itemid INT, increase FLOAT);

DECLARE SCHEME ON item (itemid);
DECLARE SCHEME ON bid (itemid);

SELECT item.itemid, bid.increase
FROM item, bid
WHERE item.itemid = bid.itemid;
`

func parseAndCompile(src string) ([]*CompiledQuery, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(script)
}

func TestParseAuctionScript(t *testing.T) {
	script, err := Parse(auctionScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Streams) != 2 || script.Schemes.Len() != 2 || len(script.Queries) != 1 {
		t.Fatalf("streams=%d schemes=%d queries=%d",
			len(script.Streams), script.Schemes.Len(), len(script.Queries))
	}
	q := script.Queries[0]
	if q.Star || len(q.Columns) != 2 || len(q.From) != 2 || len(q.Joins) != 1 {
		t.Fatalf("parsed select: %+v", q)
	}
	if q.Joins[0].Left.String() != "item.itemid" || q.Joins[0].Right.String() != "bid.itemid" {
		t.Fatalf("join = %+v", q.Joins[0])
	}
	if got := script.Schemes.ForStream("item")[0].String(); got != "item(_, +, _, _)" {
		t.Fatalf("item scheme = %s", got)
	}
}

func TestCompileAuctionSafe(t *testing.T) {
	cqs, err := parseAndCompile(auctionScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(cqs) != 1 {
		t.Fatalf("compiled %d queries", len(cqs))
	}
	cq := cqs[0]
	if !cq.Report.Safe {
		t.Fatalf("auction query must be safe:\n%s", cq.Report.Explain(cq.Query))
	}
	if len(cq.Projection) != 2 || cq.Projection[0] != "item_itemid" || cq.Projection[1] != "bid_increase" {
		t.Fatalf("projection = %v", cq.Projection)
	}
}

func TestCompileUnsafeWithoutSchemes(t *testing.T) {
	src := strings.ReplaceAll(auctionScript, "DECLARE SCHEME ON item (itemid);", "")
	cqs, err := parseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	if cqs[0].Report.Safe {
		t.Fatal("query must be unsafe without the item scheme")
	}
}

func TestParseMaskScheme(t *testing.T) {
	script, err := Parse(`
CREATE STREAM s (a INT, b INT, ts INT);
CREATE STREAM r (a INT, ts INT);
DECLARE SCHEME s (_, +, <);
DECLARE PUNCTUATION SCHEME r (+, _);
SELECT * FROM s, r WHERE s.a = r.a;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := script.Schemes.ForStream("s")[0]
	if s.String() != "s(_, +, <)" {
		t.Fatalf("mask scheme = %s", s)
	}
	if s.OrderedIndex() != 2 {
		t.Fatalf("ordered index = %d", s.OrderedIndex())
	}
	if script.Schemes.ForStream("r")[0].String() != "r(+, _)" {
		t.Fatalf("r scheme = %s", script.Schemes.ForStream("r")[0])
	}
}

func TestParseOrderedNamedScheme(t *testing.T) {
	script, err := Parse(`
CREATE STREAM pkt (src INT, seq INT, bytes INT);
CREATE STREAM conn (src INT, seq INT);
DECLARE SCHEME ON pkt (src, seq ORDERED);
SELECT * FROM pkt, conn WHERE pkt.src = conn.src AND pkt.seq = conn.seq;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := script.Schemes.ForStream("pkt")[0]
	if s.String() != "pkt(+, <, _)" {
		t.Fatalf("scheme = %s", s)
	}
}

func TestFiltersAndLiterals(t *testing.T) {
	cqs, err := parseAndCompile(`
CREATE STREAM ev (k INT, tag INT, label STRING, score FLOAT);
CREATE STREAM ref (k INT);
DECLARE SCHEME ON ev (k);
DECLARE SCHEME ON ref (k);
SELECT ev.k FROM ev, ref
WHERE ev.k = ref.k AND ev.tag = 1 AND ev.label = 'hot' AND ev.score = 0.5;
`)
	if err != nil {
		t.Fatal(err)
	}
	cq := cqs[0]
	if len(cq.Filters) != 3 {
		t.Fatalf("filters = %+v", cq.Filters)
	}
	if cq.Filters[0].Value.AsInt() != 1 {
		t.Fatalf("int filter = %s", cq.Filters[0].Value)
	}
	if cq.Filters[1].Value.AsString() != "hot" {
		t.Fatalf("string filter = %s", cq.Filters[1].Value)
	}
	if cq.Filters[2].Value.AsFloat() != 0.5 {
		t.Fatalf("float filter = %s", cq.Filters[2].Value)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad statement":     `DROP STREAM x;`,
		"bad type":          `CREATE STREAM s (a DECIMAL);`,
		"missing semicolon": `CREATE STREAM s (a INT)`,
		"dup stream":        `CREATE STREAM s (a INT); CREATE STREAM s (a INT);`,
		"scheme undeclared": `DECLARE SCHEME ON s (a);`,
		"scheme bad column": `CREATE STREAM s (a INT); DECLARE SCHEME ON s (b);`,
		"mask too long":     `CREATE STREAM s (a INT); DECLARE SCHEME s (+, _);`,
		"mask too short":    `CREATE STREAM s (a INT, b INT); DECLARE SCHEME s (+);`,
		"two ordered":       `CREATE STREAM s (a INT, b INT); DECLARE SCHEME s (<, <);`,
		"ordered string":    `CREATE STREAM s (a STRING, b INT); DECLARE SCHEME s (<, _);`,
		"unterminated str":  `CREATE STREAM s (a INT); SELECT s.a FROM s, s WHERE s.a = 'x;`,
		"bad char":          `CREATE STREAM s (a INT); @`,
		"empty mask slot":   `CREATE STREAM s (a INT); DECLARE SCHEME s (?);`,
		"column no type":    `CREATE STREAM s (a);`,
		"stream no name":    `CREATE STREAM;`,
		"unqualified where": `CREATE STREAM s (a INT); CREATE STREAM t (a INT); SELECT * FROM s, t WHERE a = t.a;`,
		"predicate no =":    `CREATE STREAM s (a INT); CREATE STREAM t (a INT); SELECT * FROM s, t WHERE s.a t.a;`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected a parse error", name)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"one stream": `
CREATE STREAM s (a INT);
SELECT * FROM s;`,
		"unknown from": `
CREATE STREAM s (a INT);
SELECT * FROM s, t WHERE s.a = t.a;`,
		"self join": `
CREATE STREAM s (a INT);
SELECT * FROM s, s WHERE s.a = s.a;`,
		"unknown column": `
CREATE STREAM s (a INT);
CREATE STREAM t (a INT);
SELECT * FROM s, t WHERE s.z = t.a;`,
		"cross product": `
CREATE STREAM s (a INT);
CREATE STREAM t (a INT);
SELECT * FROM s, t;`,
		"filter kind mismatch": `
CREATE STREAM s (a INT);
CREATE STREAM t (a INT);
SELECT * FROM s, t WHERE s.a = t.a AND s.a = 'x';`,
		"projection unknown": `
CREATE STREAM s (a INT);
CREATE STREAM t (a INT);
SELECT s.z FROM s, t WHERE s.a = t.a;`,
	}
	for name, src := range cases {
		script, err := Parse(src)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := Compile(script); err == nil {
			t.Errorf("%s: expected a compile error", name)
		}
	}
}

// TestThreeWayFigure5SQL expresses the paper's Figure 5 in SQL and checks
// the verdict matches the by-hand construction.
func TestThreeWayFigure5SQL(t *testing.T) {
	cqs, err := parseAndCompile(`
CREATE STREAM s1 (a INT, b INT);
CREATE STREAM s2 (b INT, c INT);
CREATE STREAM s3 (a INT, c INT);
DECLARE SCHEME s1 (_, +);
DECLARE SCHEME s2 (_, +);
DECLARE SCHEME s3 (+, _);
SELECT * FROM s1, s2, s3
WHERE s1.b = s2.b AND s2.c = s3.c AND s3.a = s1.a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if !cqs[0].Report.Safe {
		t.Fatal("Figure 5 must be safe")
	}
	// Dropping s3's scheme makes it unsafe.
	cqs, err = parseAndCompile(`
CREATE STREAM s1 (a INT, b INT);
CREATE STREAM s2 (b INT, c INT);
CREATE STREAM s3 (a INT, c INT);
DECLARE SCHEME s1 (_, +);
DECLARE SCHEME s2 (_, +);
SELECT * FROM s1, s2, s3
WHERE s1.b = s2.b AND s2.c = s3.c AND s3.a = s1.a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if cqs[0].Report.Safe {
		t.Fatal("must be unsafe without s3's scheme")
	}
}

// TestWatermarkSQL end-to-end: the sensor watermark scenario via SQL.
func TestWatermarkSQL(t *testing.T) {
	cqs, err := parseAndCompile(`
CREATE STREAM temp (epoch INT, celsius FLOAT);
CREATE STREAM humid (epoch INT, percent FLOAT);
DECLARE SCHEME ON temp (epoch ORDERED);
DECLARE SCHEME ON humid (epoch ORDERED);
SELECT temp.epoch, temp.celsius, humid.percent
FROM temp, humid WHERE temp.epoch = humid.epoch;
`)
	if err != nil {
		t.Fatal(err)
	}
	if !cqs[0].Report.Safe {
		t.Fatalf("watermark join must be safe:\n%s", cqs[0].Report.Explain(cqs[0].Query))
	}
	useful := cqs[0].Report.UsefulSchemes
	if len(useful) != 2 {
		t.Fatalf("useful schemes = %v", useful)
	}
	for _, s := range useful {
		if s.OrderedIndex() != 0 {
			t.Fatalf("scheme %s should be ordered on epoch", s)
		}
	}
}
