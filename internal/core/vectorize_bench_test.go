package core

import "testing"

func benchPipeline(b *testing.B, query string, trials int, noVec bool) {
	db := testDB(64000, 42)
	root := planQuery(b, query)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		eng, err := NewEngine(root, db, Options{Batches: 8, Trials: trials, Workers: 1, NoVectorize: noVec})
		if err != nil {
			b.Fatal(err)
		}
		for !eng.Done() {
			if _, err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPipeRowAgg(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s, AVG(buffer_time) AS a FROM sessions GROUP BY cdn`, 100, true)
}
func BenchmarkPipeVecAgg(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s, AVG(buffer_time) AS a FROM sessions GROUP BY cdn`, 100, false)
}
func BenchmarkPipeRowFil(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > 25 GROUP BY cdn`, 100, true)
}
func BenchmarkPipeVecFil(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > 25 GROUP BY cdn`, 100, false)
}
func BenchmarkPipeRowMin(b *testing.B) {
	benchPipeline(b, `SELECT cdn, MIN(buffer_time) AS m, MAX(play_time) AS x FROM sessions GROUP BY cdn`, 100, true)
}
func BenchmarkPipeVecMin(b *testing.B) {
	benchPipeline(b, `SELECT cdn, MIN(buffer_time) AS m, MAX(play_time) AS x FROM sessions GROUP BY cdn`, 100, false)
}

func BenchmarkPipeRowFil0(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > 25 AND cdn = 'east' GROUP BY cdn`, 0, true)
}
func BenchmarkPipeVecFil0(b *testing.B) {
	benchPipeline(b, `SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > 25 AND cdn = 'east' GROUP BY cdn`, 0, false)
}
func BenchmarkPipeRowJoin0(b *testing.B) {
	benchPipeline(b, `SELECT region, COUNT(*) AS c FROM sessions, cdns WHERE sessions.cdn = cdns.cdn AND buffer_time > 25 GROUP BY region`, 0, true)
}
func BenchmarkPipeVecJoin0(b *testing.B) {
	benchPipeline(b, `SELECT region, COUNT(*) AS c FROM sessions, cdns WHERE sessions.cdn = cdns.cdn AND buffer_time > 25 GROUP BY region`, 0, false)
}
