package workload

import (
	"fmt"
	"sort"

	"deepsea"
	"deepsea/internal/relation"
)

// Load registers the dataset's tables with a public-API System and
// copies their rows in, so serving frontends and benchmarks can drive
// the fluent query surface over the same deterministic BigBench-derived
// data the core benchmarks use. Tables load in sorted name order, so
// the resulting engine state is reproducible.
func Load(sys *deepsea.System, d *Data) error {
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.Tables[name]
		def := deepsea.TableDef{Name: name}
		for _, c := range t.Schema.Cols {
			cd := deepsea.ColumnDef{
				Name:    c.Name,
				Ordered: c.Ordered,
				Lo:      c.Lo,
				Hi:      c.Hi,
				Width:   c.Width,
			}
			switch c.Type {
			case relation.Int:
				cd.Kind = deepsea.Int
			case relation.Float:
				cd.Kind = deepsea.Float
			case relation.String:
				cd.Kind = deepsea.String
			default:
				return fmt.Errorf("workload: table %s column %s has unknown type", name, c.Name)
			}
			def.Columns = append(def.Columns, cd)
		}
		if err := sys.CreateTable(def); err != nil {
			return err
		}
		// Insert copies out of vals and keeps nothing: one buffer per table.
		vals := make([]any, len(t.Schema.Cols))
		for _, row := range t.Rows {
			for i, v := range row {
				switch t.Schema.Cols[i].Type {
				case relation.Int:
					vals[i] = v.Int()
				case relation.Float:
					vals[i] = v.Float()
				default:
					vals[i] = v.Str()
				}
			}
			if err := sys.Insert(name, vals); err != nil {
				return err
			}
		}
	}
	// The catalog is re-created: replay any base-table appends the
	// datastore recovered, so a warm restart resumes with the ingested
	// rows and a reconciled view pool. No-op without recovered appends.
	if _, err := sys.ApplyRecoveredAppends(); err != nil {
		return fmt.Errorf("workload: replay recovered appends: %w", err)
	}
	return nil
}

// BuildQuery instantiates a template as a public-API fluent query with
// the given item_sk selection range — the root-surface twin of
// Data.Query. Both render to the same plan, so reports and cache keys
// agree across the two surfaces.
func BuildQuery(t Template, lo, hi int64) *deepsea.Query {
	scan := func(name string) *deepsea.Query { return deepsea.Scan(name) }
	sales := func(keep ...string) *deepsea.Query {
		return scan("store_sales").Join(scan("item"), "ss_item_sk", "i_item_sk").Select(keep...)
	}
	clicks := func(keep ...string) *deepsea.Query {
		return scan("web_clickstream").Join(scan("item"), "wcs_item_sk", "i_item_sk").Select(keep...)
	}
	reviews := func(keep ...string) *deepsea.Query {
		return scan("product_reviews").Join(scan("item"), "pr_item_sk", "i_item_sk").Select(keep...)
	}
	sel := func(q *deepsea.Query) *deepsea.Query {
		return q.Where(t.SelectionAttr(), lo, hi)
	}

	switch t {
	case Q1:
		return sel(sales("ss_item_sk", "i_category_id", "ss_sales_price", "ss_sold_date_sk")).
			GroupBy("i_category_id").
			Agg(deepsea.Count("sales_cnt"), deepsea.Sum("ss_sales_price", "revenue"))
	case Q5:
		return sel(clicks("wcs_item_sk", "i_category_id")).
			GroupBy("i_category_id").Agg(deepsea.Count("clicks"))
	case Q7:
		return sel(sales("ss_item_sk", "ss_store_sk", "ss_quantity").
			Join(scan("store"), "ss_store_sk", "s_store_sk").
			Select("ss_item_sk", "s_region", "ss_quantity")).
			GroupBy("s_region").
			Agg(deepsea.Count("sales_cnt"), deepsea.Sum("ss_quantity", "units"))
	case Q9:
		return sel(sales("ss_item_sk", "ss_customer_sk", "i_category").
			Join(scan("customer"), "ss_customer_sk", "c_customer_sk").
			Select("ss_item_sk", "i_category", "c_age")).
			GroupBy("i_category").
			Agg(deepsea.Avg("c_age", "avg_age"), deepsea.Count("sales_cnt"))
	case Q12:
		return sel(clicks("wcs_item_sk", "i_category", "i_price")).
			GroupBy("i_category").
			Agg(deepsea.Avg("i_price", "avg_price"), deepsea.Count("clicks"))
	case Q16:
		return sel(sales("ss_item_sk", "i_category_id", "ss_sales_price", "ss_sold_date_sk")).
			GroupBy("i_category_id").
			Agg(deepsea.Min("ss_sales_price", "min_price"), deepsea.Max("ss_sales_price", "max_price"))
	case Q20:
		return sel(sales("ss_item_sk", "ss_customer_sk", "i_category_id", "ss_sales_price").
			Join(scan("customer"), "ss_customer_sk", "c_customer_sk").
			Select("ss_item_sk", "i_category_id", "ss_sales_price", "c_income")).
			GroupBy("i_category_id").
			Agg(deepsea.Sum("ss_sales_price", "spend"), deepsea.Avg("c_income", "avg_income"))
	case Q26:
		return sel(sales("ss_item_sk", "i_category_id", "ss_quantity", "ss_sales_price", "ss_customer_sk", "ss_sold_date_sk")).
			GroupBy("i_category_id").Agg(deepsea.Avg("ss_quantity", "avg_qty"))
	case Q29:
		return sel(reviews("pr_item_sk", "i_category", "pr_rating")).
			GroupBy("i_category").
			Agg(deepsea.Avg("pr_rating", "avg_rating"), deepsea.Count("reviews"))
	case Q30:
		return sel(sales("ss_item_sk", "i_category_id", "ss_quantity", "ss_sales_price", "ss_customer_sk", "ss_sold_date_sk")).
			GroupBy("i_category_id").
			Agg(deepsea.Count("sales_cnt"), deepsea.Sum("ss_quantity", "units"))
	default:
		panic(fmt.Sprintf("workload: unknown template %d", int(t)))
	}
}
