package workloads

import (
	"sync"

	"catch/internal/trace"
)

// Categories used throughout the experiments (paper Table II).
const (
	CatISpec  = "ISPEC"
	CatFSpec  = "FSPEC"
	CatHPC    = "HPC"
	CatServer = "server"
	CatClient = "client"
)

// Categories lists them in the paper's reporting order.
var Categories = []string{"client", "FSPEC", "HPC", "ISPEC", "server"}

// All returns the 70 single-thread workloads.
func All() []trace.Workload {
	return []trace.Workload{
		// ---- SPEC INT 2006 (12) ------------------------------------
		wl("perlbench", CatISpec, computeInt(384*kb, 0.05)),
		wl("bzip2", CatISpec, computeInt(512*kb, 0.04)),
		wl("gcc", CatISpec, serverMix(384, 24*kb, 2*mb, 0.05)),
		wl("mcf", CatISpec, gatherCritical(512*kb, 768*kb, 5)),
		wl("gobmk", CatISpec, computeInt(256*kb, 0.08)),
		wl("hmmer", CatISpec, hotL2(640*kb, 4)),
		wl("sjeng", CatISpec, computeInt(192*kb, 0.07)),
		wl("libquantum", CatISpec, streamHeavy(8*mb, false)),
		wl("h264ref", CatISpec, clientMix(1*mb, 96)),
		wl("omnetpp", CatISpec, chaseCritical(384*kb, 3, false)),
		wl("astar", CatISpec, gatherCritical(256*kb, 768*kb, 3)),
		wl("xalancbmk", CatISpec, crossStruct(768*kb, 576, 10, 5)),

		// ---- SPEC FP 2006 (17) -------------------------------------
		wl("bwaves", CatFSpec, stencilFP(2*mb)),
		wl("gamess", CatFSpec, computeFP()),
		wl("milc", CatFSpec, stencilFP(4*mb)),
		wl("zeusmp", CatFSpec, stencilFP(2560*kb)),
		wl("soplex", CatFSpec, gatherCritical(384*kb, 1*mb, 3)),
		wl("povray", CatFSpec, manyCritical()),
		wl("calculix", CatFSpec, computeFP()),
		wl("gemsfdtd", CatFSpec, stencilFP(3*mb)),
		wl("tonto", CatFSpec, computeFP()),
		wl("lbm", CatFSpec, streamHeavy(12*mb, true)),
		wl("wrf", CatFSpec, stencilFP(2560*kb)),
		wl("sphinx3", CatFSpec, hashLLC(13*mb/2, 4, 0.04)),
		wl("gromacs", CatFSpec, chaseCritical(320*kb, 4, true)),
		wl("cactusadm", CatFSpec, stencilFP(2*mb)),
		wl("leslie3d", CatFSpec, stencilFP(2560*kb)),
		wl("namd", CatFSpec, chaseCritical(224*kb, 5, true)),
		wl("dealii", CatFSpec, crossStruct(640*kb, 448, 8, 5)),

		// ---- HPC (12) -----------------------------------------------
		wl("blackscholes", CatHPC, computeFP()),
		wl("bioinformatics", CatHPC, gatherCritical(384*kb, 1*mb, 3)),
		wl("hplinpack", CatHPC, stencilFP(2560*kb)),
		wl("hpcg", CatHPC, stencilFP(3*mb)),
		wl("minife", CatHPC, stencilFP(2*mb)),
		wl("lulesh", CatHPC, crossStruct(1*mb, 704, 12, 5)),
		wl("stream-triad", CatHPC, streamHeavy(16*mb, true)),
		wl("kmeans", CatHPC, hotL2(512*kb, 5)),
		wl("pagerank", CatHPC, gatherCritical(512*kb, 6*mb, 3)),
		wl("bfs", CatHPC, chaseCritical(768*kb, 2, false)),
		wl("spmv", CatHPC, gatherCritical(384*kb, 1536*kb, 2)),
		wl("fft", CatHPC, hotL2(768*kb, 3)),

		// ---- Server (14) --------------------------------------------
		wl("tpce", CatServer, serverMix(512, 24*kb, 2*mb, 0.05)),
		wl("tpcc", CatServer, serverMix(448, 24*kb, 2*mb, 0.06)),
		wl("oracle-db", CatServer, serverMix(640, 24*kb, 2*mb, 0.05)),
		wl("specjbb", CatServer, serverMix(384, 24*kb, 2*mb, 0.04)),
		wl("specjenterprise", CatServer, serverMix(512, 24*kb, 2*mb, 0.05)),
		wl("hadoop", CatServer, serverMix(320, 24*kb, 2*mb, 0.04)),
		wl("specpower", CatServer, serverMix(256, 24*kb, 2*mb, 0.04)),
		wl("memcached", CatServer, hashLLC(7*mb, 3, 0.03)),
		wl("nginx", CatServer, serverMix(288, 24*kb, 2*mb, 0.04)),
		wl("mysql-oltp", CatServer, serverMix(448, 24*kb, 2*mb, 0.06)),
		wl("cassandra", CatServer, serverMix(512, 24*kb, 2*mb, 0.05)),
		wl("kafka", CatServer, clientMix(2*mb, 256)),
		wl("search-idx", CatServer, gatherCritical(512*kb, 3*mb, 3)),
		wl("mail", CatServer, serverMix(320, 24*kb, 2*mb, 0.05)),

		// ---- Client (15) --------------------------------------------
		wl("sysmark-excel", CatClient, clientMix(768*kb, 128)),
		wl("facedetect", CatClient, stencilFP(2560*kb)),
		wl("h264enc", CatClient, clientMix(1536*kb, 96)),
		wl("photoedit", CatClient, crossStruct(1*mb, 512, 8, 4)),
		wl("browser", CatClient, serverMix(384, 24*kb, 2*mb, 0.06)),
		wl("pdfrender", CatClient, clientMix(1*mb, 160)),
		wl("zip", CatClient, computeInt(640*kb, 0.04)),
		wl("game-physics", CatClient, crossStruct(768*kb, 640, 10, 6)),
		wl("speech", CatClient, hashLLC(1*mb, 4, 0.04)),
		wl("ocr", CatClient, hotL2(448*kb, 4)),
		wl("spreadsheet-calc", CatClient, gatherCritical(256*kb, 768*kb, 3)),
		wl("video-edit", CatClient, streamHeavy(6*mb, false)),
		wl("antivirus", CatClient, hashLLC(1*mb, 3, 0.03)),
		wl("compile", CatClient, serverMix(448, 24*kb, 2*mb, 0.06)),
		wl("ui-compose", CatClient, clientMix(512*kb, 192)),
	}
}

// ByName returns the workload with the given name, or false.
func ByName(name string) (trace.Workload, bool) {
	w, ok := byName()[name]
	return w, ok
}

// byName indexes All by name, built once: every BuildFunc is a
// stateless closure, so the index can hand out copies of its entries.
var byName = sync.OnceValue(func() map[string]trace.Workload {
	all := All()
	m := make(map[string]trace.Workload, len(all))
	for _, w := range all {
		m[w.WName] = w
	}
	return m
})

// ByCategory groups the study list by category.
func ByCategory() map[string][]trace.Workload {
	m := make(map[string][]trace.Workload)
	for _, w := range All() {
		m[w.WCategory] = append(m[w.WCategory], w)
	}
	return m
}

// StudyList returns a reduced, representative subset used by fast
// tests: n workloads spread across categories (n<=0 returns all).
func StudyList(n int) []trace.Workload {
	all := All()
	if n <= 0 || n >= len(all) {
		return all
	}
	out := make([]trace.Workload, 0, n)
	step := float64(len(all)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}
