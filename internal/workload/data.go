// Package workload generates the BigBench-flavoured datasets and query
// workloads of the paper's evaluation (Section 10): a retail star schema
// whose item_sk values can follow either a uniform distribution (the
// synthetic experiments) or an SDSS-shaped histogram (the real-life
// workload experiment), ten join+aggregate query templates with an
// injected range selection on item_sk, and the selectivity × skew
// selection-pattern generators of Table 1.
package workload

import (
	"fmt"
	"math/rand"

	"deepsea/internal/interval"
	"deepsea/internal/relation"
)

// Domain bounds for item_sk, matching the paper's Section 10.4 workload
// ("the domain of the selection attribute is [0, 400,000]").
const (
	ItemSkLo = 0
	ItemSkHi = 400000
)

// ItemSkDomain returns the item_sk domain as an interval.
func ItemSkDomain() interval.Interval { return interval.New(ItemSkLo, ItemSkHi) }

// Sampler draws item_sk *indices* in [0, n) — index i maps to the i-th
// item key. Uniform sampling models the default BigBench instances;
// histogram sampling models the SDSS-shaped data of Section 10.1.
type Sampler func(rng *rand.Rand, n int) int

// UniformSampler samples item indices uniformly.
func UniformSampler(rng *rand.Rand, n int) int { return rng.Intn(n) }

// Per-table byte shares of the instance and simulated rows per GB. The
// shares loosely follow BigBench's retail schema: two large fact tables,
// a smaller reviews table and three dimensions. Rows are simulated
// entities; Width scaling makes each row stand for many real rows so
// Table.Bytes() reports paper-scale sizes.
// realCols is the column count of the real BigBench/TPC-DS table; the
// generator models only the columns the templates touch and adds one
// padding column carrying the remaining width, so base-table scans cost
// the full table bytes while projected views keep only the narrow
// modelled columns (this is what makes a 7 GB view pool meaningful
// against a 500 GB instance, as in Section 10.3).
var tableSpecs = []struct {
	name      string
	byteShare float64
	rowsPerGB float64
	minRows   int
	realCols  int
}{
	{"store_sales", 0.45, 120, 2000, 12},
	{"web_clickstream", 0.25, 80, 1000, 5},
	{"product_reviews", 0.10, 40, 500, 8},
	{"item", 0.10, 24, 400, 11},
	{"customer", 0.05, 12, 200, 9},
	{"store", 0.05, 2, 20, 10},
}

// Data is one generated dataset instance.
type Data struct {
	// GB is the modelled instance size.
	GB int64
	// Tables maps table name to its generated contents.
	Tables map[string]*relation.Table
	// ItemKeys holds the item dimension's keys in increasing order; fact
	// foreign keys are drawn from this set so joins hit.
	ItemKeys []int64
}

// Generate builds a dataset of the given modelled size. The sampler
// shapes the distribution of fact-table item_sk values; nil selects
// uniform.
func Generate(gb int64, seed int64, sampler Sampler) *Data {
	if gb <= 0 {
		panic(fmt.Sprintf("workload: non-positive instance size %d", gb))
	}
	if sampler == nil {
		sampler = UniformSampler
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Data{GB: gb, Tables: make(map[string]*relation.Table)}

	rows := func(spec int) int {
		n := int(float64(gb) * tableSpecs[spec].rowsPerGB)
		if n < tableSpecs[spec].minRows {
			n = tableSpecs[spec].minRows
		}
		return n
	}

	// Item keys: evenly spread over the item_sk domain.
	nItem := rows(3)
	d.ItemKeys = make([]int64, nItem)
	step := float64(ItemSkHi-ItemSkLo+1) / float64(nItem)
	for i := 0; i < nItem; i++ {
		d.ItemKeys[i] = ItemSkLo + int64(float64(i)*step)
	}

	gbBytes := gb * (1 << 30)
	// width is the byte width of one modelled column: the table's
	// per-row bytes spread over its real column count.
	width := func(spec, nRows int) int64 {
		w := int64(float64(gbBytes)*tableSpecs[spec].byteShare) / int64(nRows) / int64(tableSpecs[spec].realCols)
		if w < 1 {
			w = 1
		}
		return w
	}
	// padWidth makes the row's total width equal the table's full
	// per-row bytes: real-column width times the unmodelled column count.
	padWidth := func(spec, nModeled, nRows int) int64 {
		w := width(spec, nRows) * int64(tableSpecs[spec].realCols-nModeled)
		if w < 1 {
			w = 1
		}
		return w
	}

	// newTable allocates a table's row headers at its exact row count:
	// Load hands this array to every System as is, so growth slack here
	// would be held once per process for nothing.
	newTable := func(schema relation.Schema, n int) *relation.Table {
		return &relation.Table{Schema: schema, Rows: make([]relation.Row, 0, n)}
	}

	cats := []string{"apparel", "books", "electronics", "garden", "grocery",
		"jewelry", "music", "shoes", "sports", "toys"}
	regions := []string{"north", "south", "east", "west"}

	// item dimension.
	{
		n := nItem
		w := width(3, n)
		schema := relation.Schema{Name: "item", Cols: []relation.Column{
			{Name: "i_item_sk", Type: relation.Int, Ordered: true, Lo: ItemSkLo, Hi: ItemSkHi, Width: w},
			{Name: "i_category_id", Type: relation.Int, Width: w},
			{Name: "i_category", Type: relation.String, Width: w},
			{Name: "i_price", Type: relation.Float, Width: w},
			{Name: "i_pad", Type: relation.String, Width: padWidth(3, 4, n)},
		}}
		t := newTable(schema, n)
		for i := 0; i < n; i++ {
			cid := int64(i % len(cats))
			t.Append(relation.Row{
				relation.IntVal(d.ItemKeys[i]),
				relation.IntVal(cid),
				relation.StringVal(cats[cid]),
				relation.FloatVal(float64(rng.Intn(9900)+100) / 100),
				relation.StringVal(""),
			})
		}
		d.Tables["item"] = t
	}

	// customer dimension.
	nCust := rows(4)
	{
		w := width(4, nCust)
		schema := relation.Schema{Name: "customer", Cols: []relation.Column{
			{Name: "c_customer_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: int64(nCust - 1), Width: w},
			{Name: "c_age", Type: relation.Int, Width: w},
			{Name: "c_income", Type: relation.Float, Width: w},
			{Name: "c_pad", Type: relation.String, Width: padWidth(4, 3, nCust)},
		}}
		t := newTable(schema, nCust)
		for i := 0; i < nCust; i++ {
			t.Append(relation.Row{
				relation.IntVal(int64(i)),
				relation.IntVal(int64(rng.Intn(70) + 18)),
				relation.FloatVal(float64(rng.Intn(180000) + 20000)),
				relation.StringVal(""),
			})
		}
		d.Tables["customer"] = t
	}

	// store dimension.
	nStore := rows(5)
	{
		w := width(5, nStore)
		schema := relation.Schema{Name: "store", Cols: []relation.Column{
			{Name: "s_store_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: int64(nStore - 1), Width: w},
			{Name: "s_region", Type: relation.String, Width: w},
			{Name: "s_pad", Type: relation.String, Width: padWidth(5, 2, nStore)},
		}}
		t := newTable(schema, nStore)
		for i := 0; i < nStore; i++ {
			t.Append(relation.Row{
				relation.IntVal(int64(i)),
				relation.StringVal(regions[i%len(regions)]),
				relation.StringVal(""),
			})
		}
		d.Tables["store"] = t
	}

	// store_sales fact.
	{
		n := rows(0)
		w := width(0, n)
		schema := relation.Schema{Name: "store_sales", Cols: []relation.Column{
			{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: ItemSkLo, Hi: ItemSkHi, Width: w},
			{Name: "ss_customer_sk", Type: relation.Int, Width: w},
			{Name: "ss_store_sk", Type: relation.Int, Width: w},
			{Name: "ss_quantity", Type: relation.Int, Width: w},
			{Name: "ss_sales_price", Type: relation.Float, Width: w},
			{Name: "ss_sold_date_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 3650, Width: w},
			{Name: "ss_pad", Type: relation.String, Width: padWidth(0, 6, n)},
		}}
		t := newTable(schema, n)
		for i := 0; i < n; i++ {
			t.Append(relation.Row{
				relation.IntVal(d.ItemKeys[sampler(rng, nItem)]),
				relation.IntVal(int64(rng.Intn(nCust))),
				relation.IntVal(int64(rng.Intn(nStore))),
				relation.IntVal(int64(rng.Intn(20) + 1)),
				relation.FloatVal(float64(rng.Intn(50000)) / 100),
				relation.IntVal(int64(rng.Intn(3651))),
				relation.StringVal(""),
			})
		}
		d.Tables["store_sales"] = t
	}

	// web_clickstream fact.
	{
		n := rows(1)
		w := width(1, n)
		schema := relation.Schema{Name: "web_clickstream", Cols: []relation.Column{
			{Name: "wcs_item_sk", Type: relation.Int, Ordered: true, Lo: ItemSkLo, Hi: ItemSkHi, Width: w},
			{Name: "wcs_user_sk", Type: relation.Int, Width: w},
			{Name: "wcs_click_date_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 3650, Width: w},
			{Name: "wcs_pad", Type: relation.String, Width: padWidth(1, 3, n)},
		}}
		t := newTable(schema, n)
		for i := 0; i < n; i++ {
			t.Append(relation.Row{
				relation.IntVal(d.ItemKeys[sampler(rng, nItem)]),
				relation.IntVal(int64(rng.Intn(nCust))),
				relation.IntVal(int64(rng.Intn(3651))),
				relation.StringVal(""),
			})
		}
		d.Tables["web_clickstream"] = t
	}

	// product_reviews fact.
	{
		n := rows(2)
		w := width(2, n)
		schema := relation.Schema{Name: "product_reviews", Cols: []relation.Column{
			{Name: "pr_item_sk", Type: relation.Int, Ordered: true, Lo: ItemSkLo, Hi: ItemSkHi, Width: w},
			{Name: "pr_user_sk", Type: relation.Int, Width: w},
			{Name: "pr_rating", Type: relation.Float, Width: w},
			{Name: "pr_pad", Type: relation.String, Width: padWidth(2, 3, n)},
		}}
		t := newTable(schema, n)
		for i := 0; i < n; i++ {
			t.Append(relation.Row{
				relation.IntVal(d.ItemKeys[sampler(rng, nItem)]),
				relation.IntVal(int64(rng.Intn(nCust))),
				relation.FloatVal(float64(rng.Intn(41))/10 + 1),
				relation.StringVal(""),
			})
		}
		d.Tables["product_reviews"] = t
	}

	return d
}

// Schema returns the schema of the named base table.
func (d *Data) Schema(name string) relation.Schema {
	t, ok := d.Tables[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown table %q", name))
	}
	return t.Schema
}

// TotalBytes returns the modelled size of all base tables.
func (d *Data) TotalBytes() int64 {
	var b int64
	for _, t := range d.Tables {
		b += t.Bytes()
	}
	return b
}
