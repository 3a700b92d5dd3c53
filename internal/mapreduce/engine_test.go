package mapreduce

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomRecords builds a skewed random record set with many duplicate
// keys, so reducers see multi-value groups.
func randomRecords(n int, seed int64) []Pair[int32, int32] {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Pair[int32, int32], n)
	for i := range recs {
		recs[i] = Pair[int32, int32]{Key: int32(rng.Intn(n / 4)), Value: int32(rng.Intn(1000))}
	}
	return recs
}

func sumJob(cfg Config, recs []Pair[int32, int32]) ([]Pair[int32, int64], Stats, error) {
	mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	reduceFn := func(k int32, vs []int32, emit func(int32, int64)) {
		var total int64
		for _, v := range vs {
			total += int64(v)
		}
		emit(k, total)
	}
	return Run(cfg, recs, mapFn, reduceFn)
}

// Regression for the old engine's nondeterministic reducer emit order
// (map iteration over groups): the job output must be one exact slice —
// same keys, same order — across 10 repeated runs and across differing
// cluster shapes.
func TestRunOutputOrderDeterministic(t *testing.T) {
	recs := randomRecords(20000, 7)
	want, _, err := sumJob(Config{Mappers: 1, Reducers: 1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []Config{
		{Mappers: 1, Reducers: 1},
		{Mappers: 8, Reducers: 8},
		{Mappers: 3, Reducers: 5},
		{Mappers: 4, Reducers: 2, Machines: 4},
		{Mappers: 2, Reducers: 2, Machines: 8},
	}
	for _, cfg := range shapes {
		for run := 0; run < 10; run++ {
			got, _, err := sumJob(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v run %d: output order differs from the 1×1 reference", cfg, run)
			}
		}
	}
}

// Shard must lay records out identically for every cluster shape, and
// feeding the resident dataset through a job must agree with feeding
// the same records as a flat slice.
func TestShardDeterministicAndResidentInputEquivalence(t *testing.T) {
	recs := randomRecords(10000, 3)
	ref, err := NewEngine(Config{Mappers: 1, Reducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Shard(ref, recs)
	if want.Len() != len(recs) {
		t.Fatalf("Shard dropped records: %d vs %d", want.Len(), len(recs))
	}
	for _, cfg := range []Config{{Mappers: 8, Reducers: 8}, {Mappers: 3, Reducers: 2, Machines: 5}} {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := Shard(e, recs)
		if !reflect.DeepEqual(got.parts, want.parts) {
			t.Fatalf("cfg %+v: Shard layout differs", cfg)
		}
	}

	// Resident vs flat input: same job, same output.
	mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	reduceFn := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
	flat, _, err := RunJob(ref.StartRound(), nil, recs, mapFn, nil, reduceFn)
	if err != nil {
		t.Fatal(err)
	}
	resident, _, err := RunJob(ref.StartRound(), want, nil, mapFn, nil, reduceFn)
	if err != nil {
		t.Fatal(err)
	}
	// The flat stream and the partitioned stream order records
	// differently, but counts per key — and the sorted-key fold order —
	// must agree exactly.
	flatRecs, err := flat.Records()
	if err != nil {
		t.Fatal(err)
	}
	residentRecs, err := resident.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatRecs, residentRecs) {
		t.Fatal("flat and resident inputs disagree")
	}
}

func TestPerMachineStatsPartitionTheShuffle(t *testing.T) {
	recs := randomRecords(8000, 9)
	for _, machines := range []int{1, 2, 4, 7} {
		e, err := NewEngine(Config{Mappers: 2, Reducers: 2, Machines: machines})
		if err != nil {
			t.Fatal(err)
		}
		rd := e.StartRound()
		mapFn := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
		reduceFn := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, int32(len(vs))) }
		_, stats, err := RunJob(rd, nil, recs, mapFn, nil, reduceFn)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.PerMachine) != machines {
			t.Fatalf("machines=%d: PerMachine has %d entries", machines, len(stats.PerMachine))
		}
		var recSum, byteSum int64
		for _, m := range stats.PerMachine {
			recSum += m.ShuffleRecords
			byteSum += m.ShuffleBytes
		}
		if recSum != stats.ShuffleRecords || byteSum != stats.ShuffleBytes {
			t.Fatalf("machines=%d: per-machine sums (%d recs, %d bytes) != totals (%d, %d)",
				machines, recSum, byteSum, stats.ShuffleRecords, stats.ShuffleBytes)
		}
		if stats.ShuffleBytes != stats.ShuffleRecords*8 {
			t.Fatalf("shuffle bytes %d for %d 8-byte records", stats.ShuffleBytes, stats.ShuffleRecords)
		}
		// Round aggregation mirrors the job stats.
		rs := rd.Stats()
		if rs.ShuffleRecords != stats.ShuffleRecords || len(rs.PerMachine) != machines {
			t.Fatalf("round stats %+v do not mirror job stats", rs)
		}
	}
}

func TestRunJobValidation(t *testing.T) {
	id := func(k int32, v int32, emit func(int32, int32)) { emit(k, v) }
	red := func(k int32, vs []int32, emit func(int32, int32)) { emit(k, 0) }
	if _, _, err := RunJob[int32, int32, int32, int32](nil, nil, nil, id, nil, red); err == nil {
		t.Fatal("nil round accepted")
	}
	e, err := NewEngine(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunJob[int32, int32, int32, int32](e.StartRound(), nil, nil, nil, nil, red); err == nil {
		t.Fatal("nil mapper accepted")
	}
	if e.Machines() != 1 {
		t.Fatalf("DefaultConfig machines = %d", e.Machines())
	}
	if _, err := NewEngine(Config{Mappers: 1, Reducers: 1, Machines: -3}); err == nil {
		t.Fatal("negative Machines should be rejected")
	}
	// Zero fields mean "unset" and normalize to the defaults.
	e2, err := NewEngine(Config{})
	if err != nil {
		t.Fatalf("zero config should normalize: %v", err)
	}
	if e2.Config() != DefaultConfig {
		t.Fatalf("zero config normalized to %+v", e2.Config())
	}
}

// oracleGroup is the reference grouping for the radix sort: a map of
// per-key slices in record order, visited in sorted key order.
func oracleGroup[V any](recs []Pair[int32, V], fn func(k int32, vals []V)) {
	groups := make(map[int32][]V)
	for _, r := range recs {
		groups[r.Key] = append(groups[r.Key], r.Value)
	}
	for _, k := range slices.Sorted(maps.Keys(groups)) {
		fn(k, groups[k])
	}
}

// oracleJob computes RunJob's output partitions directly from the
// definition: map each fixed shard, optionally combine it per key, hash
// the records to partitions in shard order, and reduce each partition's
// keys in ascending order.
func oracleJob[V2, V3 any](recs []Pair[int32, int32], mapFn Mapper[int32, int32, V2], combineFn Combiner[V2], reduceFn Reducer[V2, V3]) [][]Pair[int32, V3] {
	parts := make([][]Pair[int32, V2], NumPartitions)
	for s := 0; s < NumMapShards; s++ {
		lo, hi := shardBounds(s, len(recs))
		var emitted []Pair[int32, V2]
		for _, r := range recs[lo:hi] {
			mapFn(r.Key, r.Value, func(k int32, v V2) { emitted = append(emitted, Pair[int32, V2]{Key: k, Value: v}) })
		}
		if combineFn != nil {
			var folded []Pair[int32, V2]
			oracleGroup(emitted, func(k int32, vals []V2) {
				folded = append(folded, Pair[int32, V2]{Key: k, Value: combineFn(k, vals)})
			})
			emitted = folded
		}
		for _, r := range emitted {
			p := partIndex(r.Key)
			parts[p] = append(parts[p], r)
		}
	}
	out := make([][]Pair[int32, V3], NumPartitions)
	for p, part := range parts {
		oracleGroup(part, func(k int32, vals []V2) {
			reduceFn(k, vals, func(k int32, v V3) { out[p] = append(out[p], Pair[int32, V3]{Key: k, Value: v}) })
		})
	}
	return out
}

// The radix-sort grouping must reproduce the map-and-sort oracle
// exactly — every output partition, key order and value order — across
// key spans that need one, two and three digit passes, negative keys,
// a single key, empty partitions and input, with and without the
// combiner, and under lost map and reduce tasks recovered
// speculatively.
func TestRunJobGroupingMatchesOracle(t *testing.T) {
	keyed := func(n int, seed int64, key func(*rand.Rand) int32) []Pair[int32, int32] {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Pair[int32, int32], n)
		for i := range recs {
			// The value is the record's input position, so each group's
			// values must arrive strictly increasing.
			recs[i] = Pair[int32, int32]{Key: key(rng), Value: int32(i)}
		}
		return recs
	}
	fullSpan := keyed(6000, 3, func(r *rand.Rand) int32 { return int32(r.Uint32()) })
	fullSpan[17].Key, fullSpan[4000].Key = math.MinInt32, math.MaxInt32
	fullSpan[18].Key, fullSpan[4001].Key = math.MaxInt32, math.MinInt32
	cases := []struct {
		name string
		recs []Pair[int32, int32]
	}{
		{"dense-1-pass", keyed(5000, 1, func(r *rand.Rand) int32 { return int32(r.Intn(1500)) })},
		{"node-ids-2-passes", keyed(20000, 2, func(r *rand.Rand) int32 { return int32(r.Intn(400000)) })},
		{"full-span-3-passes", fullSpan},
		{"negative", keyed(5000, 4, func(r *rand.Rand) int32 { return int32(r.Intn(6000)) - 5000 })},
		{"one-key", keyed(3000, 5, func(*rand.Rand) int32 { return 42 })},
		{"empty-partitions", keyed(40, 6, func(r *rand.Rand) int32 { return int32(r.Intn(5)) * 1000 })},
		{"empty-input", nil},
	}
	mapFn := func(k, v int32, emit func(int32, int32)) { emit(k, v) }
	// Order-sensitive folds: any reordering of a key's values changes
	// the result.
	fold := func(vals []int32) int32 {
		var h int32
		for _, v := range vals {
			h = h*31 + v
		}
		return h
	}
	increasing := func(vals []int32) bool {
		for i := 1; i < len(vals); i++ {
			if vals[i-1] >= vals[i] {
				return false
			}
		}
		return true
	}
	plan := &FailurePlan{
		Faults:     []Fault{{Kind: FaultMap, Target: 0}, {Kind: FaultMap, Target: 37}, {Kind: FaultReduce, Target: 5}},
		Seed:       9,
		MapRate:    0.2,
		ReduceRate: 0.2,
		Speculate:  true,
	}
	for _, tc := range cases {
		for _, combine := range []bool{false, true} {
			for _, failures := range []*FailurePlan{nil, plan} {
				var combineFn Combiner[int32]
				if combine {
					combineFn = func(k int32, vals []int32) int32 {
						if !increasing(vals) {
							t.Errorf("%s: combiner saw key %d's values out of input order: %v", tc.name, k, vals)
						}
						return fold(vals)
					}
				}
				reduceFn := func(k int32, vals []int32, emit func(int32, []int32)) {
					if !combine && !increasing(vals) {
						t.Errorf("%s: reducer saw key %d's values out of input order: %v", tc.name, k, vals)
					}
					// Appending past the group must not reach the next
					// key's values.
					emit(k, append(vals, -1))
				}
				want := oracleJob(tc.recs, mapFn, combineFn, reduceFn)
				e, err := NewEngine(Config{Mappers: 3, Reducers: 2, Machines: 2, Failures: failures})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := RunJob(e.StartRound(), nil, tc.recs, mapFn, combineFn, reduceFn)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.parts, want) {
					t.Fatalf("%s combine=%v failures=%v: output differs from the map-and-sort oracle", tc.name, combine, failures != nil)
				}
				if failures != nil && len(tc.recs) > 0 {
					if fs := e.FaultStats(); fs.MapTaskReruns == 0 || fs.ReduceReruns == 0 {
						t.Fatalf("%s: failure plan lost no tasks: %+v", tc.name, fs)
					}
				}
			}
		}
	}
}
