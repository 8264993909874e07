package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"deepsea/internal/engine"
)

// TestMergeIntExtremesAreExact: Int min/max states beyond 2^53 merge as
// the engine compares Int cells, exactly, in either shard order. Through
// float64 the two values below are equal, and the first shard's won.
func TestMergeIntExtremesAreExact(t *testing.T) {
	const hi, lo = "9007199254740993", "9007199254740992"
	for _, tc := range []struct{ col, want string }{{"m#min", lo}, {"m#max", hi}} {
		for _, order := range [][2]string{{hi, lo}, {lo, hi}} {
			shards := [][][]any{
				{{"g", json.Number(order[0])}},
				{{"g", json.Number(order[1])}},
			}
			_, rows, err := MergePartials([]string{"g", tc.col}, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := rows[0][1]; got != json.Number(tc.want) {
				t.Errorf("%s over shards %v = %v, want %s", tc.col, order, got, tc.want)
			}
		}
	}
}

// fuzzCols is the partial header the placement fuzz merges: Int, Float
// and String group keys, then count, sum, avg, and min/max over an Int,
// a Float and a String column.
var fuzzCols = []string{"gi", "gf", "gs", "c#count", "s#sum", "a#avg.sum", "a#avg.n",
	"mi#min", "xi#max", "mf#min", "xf#max", "ms#min", "xs#max"}

// fuzzRow is one partial row of the fuzz input, and the shard (mod the
// shard count) it is dealt to.
type fuzzRow struct {
	GI, GF, GS  uint8 // group keys, drawn from small sets so groups collide
	Count       int64
	Sum, AvgSum float64
	AvgN        int64
	MinI, MaxI  int64
	MinF, MaxF  float64
	MinS, MaxS  uint8
	Shard       uint8
}

// fuzzRowSize is fuzzRow's encoded size (binary.Size).
var fuzzRowSize = binary.Size(fuzzRow{})

var (
	fuzzFloatKeys = []float64{0, math.Copysign(0, -1), 0.5, -2.5, 1e300}
	fuzzStrings   = []string{"", "a", "b", "ab", "é"}
)

// encodeFuzzInput lays out a fuzz input: the shard count, then the rows.
func encodeFuzzInput(shards uint8, rows ...fuzzRow) []byte {
	var b bytes.Buffer
	b.WriteByte(shards - 1)
	for _, r := range rows {
		_ = binary.Write(&b, binary.BigEndian, r)
	}
	return b.Bytes()
}

// wireFloat maps what JSON cannot carry — NaN and the infinities — to 0:
// a min/max state is a JSON number, so no replica can send them.
func wireFloat(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// sumInput maps NaN to 0, as no cell holds one. Infinite sums stay: the
// merge must reject opposite ones alike at every placement.
func sumInput(f float64) float64 {
	if math.IsNaN(f) {
		return 0
	}
	return f
}

// FuzzMergePlacement: partial rows dealt to 1–4 shards in any order
// merge to the same bytes as the same rows from one shard, or fail on
// both. The seeds reorder min/max states a float64 comparison cannot
// tell apart: 2^53 and 2^53+1, the int64 extremes, -0 and 0.
func FuzzMergePlacement(f *testing.F) {
	const two53 = int64(1) << 53
	f.Add(encodeFuzzInput(2,
		fuzzRow{MinI: two53 + 1, MaxI: two53, Shard: 1},
		fuzzRow{MinI: two53, MaxI: two53 + 1, Shard: 0}))
	f.Add(encodeFuzzInput(3,
		fuzzRow{MinI: math.MinInt64, MaxI: math.MaxInt64 - 1, Count: math.MaxInt64, Shard: 2},
		fuzzRow{MinI: -math.MaxInt64, MaxI: math.MaxInt64, Count: 1, Shard: 0},
		fuzzRow{MinI: math.MaxInt64, MaxI: math.MinInt64, Shard: 1}))
	f.Add(encodeFuzzInput(2,
		fuzzRow{MinF: 0, MaxF: math.Copysign(0, -1), Shard: 1},
		fuzzRow{MinF: math.Copysign(0, -1), MaxF: 0, Shard: 0}))
	f.Add(encodeFuzzInput(2,
		fuzzRow{Sum: math.Inf(1), AvgSum: math.Inf(-1), Shard: 1},
		fuzzRow{Sum: 1e308, AvgSum: math.Inf(1), Shard: 0}))
	f.Add(encodeFuzzInput(4,
		fuzzRow{GI: 1, GF: 2, GS: 3, Count: 5, Sum: 0.1, AvgSum: 2.5, AvgN: 2, MinS: 1, MaxS: 4, Shard: 3},
		fuzzRow{GI: 1, GF: 2, GS: 3, Count: 7, Sum: 0.2, AvgSum: -1, AvgN: 3, MinS: 4, MaxS: 0, Shard: 1},
		fuzzRow{GI: 2, Sum: 1e-300, MinF: 9007199254740994, MaxF: 1e21, Shard: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%4
		data = data[1:]
		var rows [][]any
		var shardOf []int
		for len(data) >= fuzzRowSize {
			var r fuzzRow
			_ = binary.Read(bytes.NewReader(data[:fuzzRowSize]), binary.BigEndian, &r)
			data = data[fuzzRowSize:]
			rows = append(rows, []any{
				int64(r.GI%3) - 1, fuzzFloatKeys[int(r.GF)%len(fuzzFloatKeys)], fuzzStrings[int(r.GS)%len(fuzzStrings)],
				r.Count, engine.EncodePartialSum(sumInput(r.Sum)), engine.EncodePartialSum(sumInput(r.AvgSum)), r.AvgN,
				r.MinI, r.MaxI, wireFloat(r.MinF), wireFloat(r.MaxF),
				fuzzStrings[int(r.MinS)%len(fuzzStrings)], fuzzStrings[int(r.MaxS)%len(fuzzStrings)],
			})
			shardOf = append(shardOf, int(r.Shard)%k)
		}
		if len(rows) == 0 {
			return
		}
		rows = wireRows(t, fuzzCols, rows)
		dealt := make([][][]any, k)
		for i, row := range rows {
			dealt[shardOf[i]] = append(dealt[shardOf[i]], row)
		}

		merged := func(shards [][][]any) (string, error) {
			cols, out, err := MergePartials(fuzzCols, shards)
			if err != nil {
				return "", err
			}
			b, err := json.Marshal(map[string]any{"columns": cols, "rows": out})
			return string(b), err
		}
		want, wantErr := merged([][][]any{rows})
		got, gotErr := merged(dealt)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("one shard: err %v; %d shards: err %v", wantErr, k, gotErr)
		}
		if got != want {
			t.Fatalf("%d shards merge differently from one:\n got %s\nwant %s", k, got, want)
		}
	})
}
