package chunk

import (
	"fmt"

	"repro/internal/tensor"
)

// TileLayout describes how a sample larger than the chunk upper bound is
// split into a grid of spatial tiles (§3.4: "the sample is tiled into chunks
// across spatial dimensions", as for large aerial or microscopy images).
// Tiles are indexed row-major over the grid; edge tiles may be smaller than
// TileShape.
type TileLayout struct {
	// SampleShape is the full sample shape.
	SampleShape []int `json:"sample_shape"`
	// TileShape is the nominal per-tile shape.
	TileShape []int `json:"tile_shape"`
	// Grid holds the number of tiles along each axis.
	Grid []int `json:"grid"`
}

// PlanTiles chooses a tile shape for a sample of the given shape and element
// size so each tile's payload fits within maxBytes. It repeatedly halves the
// currently largest dimension, preserving aspect ratio as in the paper's
// spatial tiling.
func PlanTiles(shape []int, elemSize, maxBytes int) (TileLayout, error) {
	if elemSize <= 0 || maxBytes <= 0 {
		return TileLayout{}, fmt.Errorf("chunk: invalid tiling params elem=%d max=%d", elemSize, maxBytes)
	}
	tile := append([]int(nil), shape...)
	bytes := elemSize
	for _, d := range tile {
		bytes *= d
	}
	for bytes > maxBytes {
		// Halve the largest dimension > 1.
		largest := -1
		for i, d := range tile {
			if d > 1 && (largest < 0 || d > tile[largest]) {
				largest = i
			}
		}
		if largest < 0 {
			return TileLayout{}, fmt.Errorf("chunk: cannot tile shape %v below %d bytes", shape, maxBytes)
		}
		tile[largest] = (tile[largest] + 1) / 2
		bytes = elemSize
		for _, d := range tile {
			bytes *= d
		}
	}
	grid := make([]int, len(shape))
	for i := range shape {
		if tile[i] == 0 {
			grid[i] = 1
			continue
		}
		grid[i] = (shape[i] + tile[i] - 1) / tile[i]
		if grid[i] == 0 {
			grid[i] = 1
		}
	}
	return TileLayout{SampleShape: append([]int(nil), shape...), TileShape: tile, Grid: grid}, nil
}

// NumTiles returns the total number of tiles in the grid.
func (l *TileLayout) NumTiles() int {
	n := 1
	for _, g := range l.Grid {
		n *= g
	}
	return n
}

// TileCoords converts a row-major tile index to grid coordinates.
func (l *TileLayout) TileCoords(i int) []int {
	coords := make([]int, len(l.Grid))
	for ax := len(l.Grid) - 1; ax >= 0; ax-- {
		coords[ax] = i % l.Grid[ax]
		i /= l.Grid[ax]
	}
	return coords
}

// TileIndex converts grid coordinates to a row-major tile index.
func (l *TileLayout) TileIndex(coords []int) int {
	idx := 0
	for ax, c := range coords {
		idx = idx*l.Grid[ax] + c
	}
	return idx
}

// TileBounds returns the half-open sample-space bounds [lo, hi) of the tile
// at the given grid coordinates.
func (l *TileLayout) TileBounds(coords []int) (lo, hi []int) {
	lo = make([]int, len(coords))
	hi = make([]int, len(coords))
	for ax, c := range coords {
		lo[ax] = c * l.TileShape[ax]
		hi[ax] = lo[ax] + l.TileShape[ax]
		if hi[ax] > l.SampleShape[ax] {
			hi[ax] = l.SampleShape[ax]
		}
	}
	return lo, hi
}

// Split cuts a sample array into its tiles, row-major over the grid.
func (l *TileLayout) Split(a *tensor.NDArray) ([]*tensor.NDArray, error) {
	if !shapeEqual(a.Shape(), l.SampleShape) {
		return nil, fmt.Errorf("chunk: array shape %v does not match layout %v", a.Shape(), l.SampleShape)
	}
	tiles := make([]*tensor.NDArray, 0, l.NumTiles())
	for i := 0; i < l.NumTiles(); i++ {
		lo, hi := l.TileBounds(l.TileCoords(i))
		ranges := make([]tensor.Range, len(lo))
		for ax := range lo {
			ranges[ax] = tensor.Range{Start: lo[ax], Stop: hi[ax]}
		}
		t, err := a.Slice(ranges...)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, t)
	}
	return tiles, nil
}

// Assemble reconstitutes the full sample (or a slice of it) from tiles.
// tiles maps tile index -> tile array and may omit tiles that do not overlap
// region; region nil means the whole sample.
func (l *TileLayout) Assemble(dtype tensor.Dtype, tiles map[int]*tensor.NDArray, region []tensor.Range) (*tensor.NDArray, error) {
	nd := len(l.SampleShape)
	lo := make([]int, nd)
	hi := make([]int, nd)
	for ax := 0; ax < nd; ax++ {
		lo[ax], hi[ax] = 0, l.SampleShape[ax]
	}
	if region != nil {
		if len(region) > nd {
			return nil, fmt.Errorf("chunk: region rank %d exceeds sample rank %d", len(region), nd)
		}
		for ax, r := range region {
			rlo, rhi, err := resolveRange(r, l.SampleShape[ax])
			if err != nil {
				return nil, err
			}
			lo[ax], hi[ax] = rlo, rhi
		}
	}
	outShape := make([]int, nd)
	for ax := range outShape {
		outShape[ax] = hi[ax] - lo[ax]
	}
	out, err := tensor.New(dtype, outShape...)
	if err != nil {
		return nil, err
	}
	for _, ti := range l.TilesOverlapping(regionFromBounds(lo, hi)) {
		tile, ok := tiles[ti]
		if !ok {
			return nil, fmt.Errorf("chunk: missing tile %d for requested region", ti)
		}
		tlo, thi := l.TileBounds(l.TileCoords(ti))
		// Intersection of [tlo,thi) and [lo,hi).
		srcRanges := make([]tensor.Range, nd)
		for ax := 0; ax < nd; ax++ {
			ilo := max(tlo[ax], lo[ax])
			ihi := min(thi[ax], hi[ax])
			srcRanges[ax] = tensor.Range{Start: ilo - tlo[ax], Stop: ihi - tlo[ax]}
		}
		part, err := tile.Slice(srcRanges...)
		if err != nil {
			return nil, err
		}
		if err := pasteInto(out, part, tlo, lo, hi); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pasteInto copies part (whose sample-space origin is the intersection of
// the tile origin tlo and region lo) into out at the right offset.
func pasteInto(out, part *tensor.NDArray, tlo, lo, hi []int) error {
	nd := out.NDim()
	dstOrigin := make([]int, nd)
	for ax := 0; ax < nd; ax++ {
		o := tlo[ax]
		if lo[ax] > o {
			o = lo[ax]
		}
		dstOrigin[ax] = o - lo[ax]
	}
	// Iterate over part elements in blocks of the last axis.
	ps := part.Shape()
	if part.Len() == 0 {
		return nil
	}
	idx := make([]int, nd)
	for {
		// Copy one run along the last axis via At/SetAt on runs.
		for k := 0; k < ps[nd-1]; k++ {
			idx[nd-1] = k
			v, err := part.At(idx...)
			if err != nil {
				return err
			}
			dst := make([]int, nd)
			for ax := 0; ax < nd; ax++ {
				dst[ax] = dstOrigin[ax] + idx[ax]
			}
			if err := out.SetAt(v, dst...); err != nil {
				return err
			}
		}
		// Advance all but the last axis.
		ax := nd - 2
		for ; ax >= 0; ax-- {
			idx[ax]++
			if idx[ax] < ps[ax] {
				break
			}
			idx[ax] = 0
		}
		if ax < 0 {
			break
		}
	}
	return nil
}

// TilesOverlapping returns the indices of tiles intersecting region (nil
// means all tiles), so streaming readers fetch only the tiles a slice needs.
func (l *TileLayout) TilesOverlapping(region []tensor.Range) []int {
	nd := len(l.SampleShape)
	lo := make([]int, nd)
	hi := make([]int, nd)
	for ax := 0; ax < nd; ax++ {
		lo[ax], hi[ax] = 0, l.SampleShape[ax]
	}
	for ax := 0; ax < len(region) && ax < nd; ax++ {
		if rlo, rhi, err := resolveRange(region[ax], l.SampleShape[ax]); err == nil {
			lo[ax], hi[ax] = rlo, rhi
		}
	}
	var out []int
	for i := 0; i < l.NumTiles(); i++ {
		tlo, thi := l.TileBounds(l.TileCoords(i))
		overlap := true
		for ax := 0; ax < nd; ax++ {
			if tlo[ax] >= hi[ax] || thi[ax] <= lo[ax] {
				overlap = false
				break
			}
		}
		if overlap {
			out = append(out, i)
		}
	}
	return out
}

func regionFromBounds(lo, hi []int) []tensor.Range {
	r := make([]tensor.Range, len(lo))
	for i := range lo {
		r[i] = tensor.Range{Start: lo[i], Stop: hi[i]}
	}
	return r
}

func resolveRange(r tensor.Range, n int) (int, int, error) {
	lo, hi := r.Start, r.Stop
	if lo < 0 {
		lo += n
	}
	if hi != tensor.End && hi < 0 {
		hi += n
	}
	if hi == tensor.End || hi > n {
		hi = n
	}
	if lo < 0 || lo > n || hi < lo {
		return 0, 0, fmt.Errorf("chunk: invalid range [%d:%d) for size %d", r.Start, r.Stop, n)
	}
	return lo, hi, nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
