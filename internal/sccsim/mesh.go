package sccsim

import "sync"

// The SCC places two cores per tile on a 6x4 mesh (thesis Figure 5.1);
// scaled configurations widen the tiles (Config.CoresPerTile) and the
// mesh. Routing is dimension-ordered (X then Y), so the distance between
// two tiles is the Manhattan distance. Up to four memory controllers sit
// on the mesh corners exactly as on the SCC; larger controller counts
// are spread evenly along the mesh perimeter. Each core reaches DRAM
// through its nearest controller, which is what puts "at least 8 cores
// in contention per memory controller" in the paper's 32-core runs.
//
// Controller assignment and hop counts depend only on the configuration,
// so they are resolved once per mesh geometry (meshMapOf) and shared by
// every machine of it; dramTime — the per-access hot path — reads two array entries instead
// of re-running a nearest-controller search per DRAM request.

// TileOf returns the tile index of a core.
func (m *Machine) TileOf(core int) int { return core / m.coresPerTile }

// TileXY returns a tile's mesh coordinates.
func (m *Machine) TileXY(tile int) (x, y int) {
	return tile % m.cfg.TilesX, tile / m.cfg.TilesX
}

// CoreXY returns a core's tile coordinates.
func (m *Machine) CoreXY(core int) (x, y int) { return m.TileXY(m.TileOf(core)) }

// Hops returns the XY-routed hop count between the tiles of two cores.
func (m *Machine) Hops(coreA, coreB int) int {
	ax, ay := m.CoreXY(coreA)
	bx, by := m.CoreXY(coreB)
	return abs(ax-bx) + abs(ay-by)
}

// computeMCPositions places the memory controllers on the mesh. The
// first four take the corners in the SCC's order (preserving the
// original quadrant partition bit-for-bit on legacy configs); beyond
// four, controllers are spread evenly along the mesh perimeter —
// derived from the mesh geometry rather than the SCC's corner constant,
// so a 16x16 mesh with 16 controllers gets an edge distribution instead
// of 13 controllers piled onto 4 corner positions.
func computeMCPositions(cfg *Config) []meshPos {
	maxX, maxY := cfg.TilesX-1, cfg.TilesY-1
	n := cfg.MemControllers
	pos := make([]meshPos, n)
	if n <= 4 {
		corners := [4]meshPos{{0, 0}, {maxX, 0}, {0, maxY}, {maxX, maxY}}
		for i := range pos {
			pos[i] = corners[i%4]
		}
		return pos
	}
	perim := perimeterWalk(cfg.TilesX, cfg.TilesY)
	for i := range pos {
		pos[i] = perim[i*len(perim)/n]
	}
	return pos
}

type meshPos struct{ x, y int }

// perimeterWalk enumerates the border tiles clockwise from (0,0):
// along the top row, down the right column, back along the bottom row,
// and up the left column. Degenerate meshes (one row or column) reduce
// to a single pass.
func perimeterWalk(w, h int) []meshPos {
	if w == 1 {
		out := make([]meshPos, h)
		for y := 0; y < h; y++ {
			out[y] = meshPos{0, y}
		}
		return out
	}
	if h == 1 {
		out := make([]meshPos, w)
		for x := 0; x < w; x++ {
			out[x] = meshPos{x, 0}
		}
		return out
	}
	out := make([]meshPos, 0, 2*(w+h)-4)
	for x := 0; x < w; x++ {
		out = append(out, meshPos{x, 0})
	}
	for y := 1; y < h; y++ {
		out = append(out, meshPos{w - 1, y})
	}
	for x := w - 2; x >= 0; x-- {
		out = append(out, meshPos{x, h - 1})
	}
	for y := h - 2; y >= 1; y-- {
		out = append(out, meshPos{0, y})
	}
	return out
}

// meshGeometry is what a machine's controller placement and per-core
// controller map depend on in a Config.
type meshGeometry struct {
	cores, coresPerTile, tilesX, tilesY, controllers int
}

// meshMap is one geometry's controller positions and, per core, its
// memory controller and hop count to it. It is read-only once built, and
// every machine of the geometry shares it.
type meshMap struct {
	mcPos      []meshPos
	coreMC     []int32
	coreMCHops []int32
}

// meshMaps holds the map of each geometry built so far, up to
// maxMeshMaps of them; a geometry past that builds its own every time.
var meshMaps struct {
	sync.Mutex
	of map[meshGeometry]*meshMap
}

const maxMeshMaps = 64

// meshMapOf returns cfg's mesh map, building it on its geometry's first
// use.
func meshMapOf(cfg *Config) *meshMap {
	g := meshGeometry{cfg.Cores, cfg.TileCores(), cfg.TilesX, cfg.TilesY, cfg.MemControllers}
	meshMaps.Lock()
	defer meshMaps.Unlock()
	if mm := meshMaps.of[g]; mm != nil {
		return mm
	}
	mm := computeMeshMap(cfg)
	if meshMaps.of == nil {
		meshMaps.of = make(map[meshGeometry]*meshMap)
	}
	if len(meshMaps.of) < maxMeshMaps {
		meshMaps.of[g] = mm
	}
	return mm
}

// computeMeshMap places the controllers and resolves every core's
// memory controller and hop count (nearest controller by Manhattan
// distance, ties toward the lower index — the SCC quadrant rule, now
// derived from geometry).
func computeMeshMap(cfg *Config) *meshMap {
	mm := &meshMap{
		mcPos:      computeMCPositions(cfg),
		coreMC:     make([]int32, cfg.Cores),
		coreMCHops: make([]int32, cfg.Cores),
	}
	cpt := cfg.TileCores()
	for core := 0; core < cfg.Cores; core++ {
		tile := core / cpt
		cx, cy := tile%cfg.TilesX, tile/cfg.TilesX
		best, bestDist := 0, 1<<30
		for i, p := range mm.mcPos {
			d := abs(cx-p.x) + abs(cy-p.y)
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		mm.coreMC[core] = int32(best)
		mm.coreMCHops[core] = int32(bestDist)
	}
	return mm
}

// ControllerOf returns the memory controller serving a core.
func (m *Machine) ControllerOf(core int) int { return int(m.coreMC[core]) }

// HopsToController returns the hop count from a core's tile to its
// memory controller.
func (m *Machine) HopsToController(core int) int { return int(m.coreMCHops[core]) }

// meshRoundTrip is the wire latency of a request/response pair across
// the given hop count.
func (m *Machine) meshRoundTrip(hops int) Time {
	return Time(2*hops) * m.hopTime
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
