package integrals

// Cart is one Cartesian angular momentum component (lx, ly, lz).
type Cart struct{ X, Y, Z int }

// cartCache[l] lists the Cartesian components of angular momentum l in the
// canonical order: lx descending, then ly descending.
var cartCache [][]Cart

func init() {
	const maxL = 8
	cartCache = make([][]Cart, maxL+1)
	for l := 0; l <= maxL; l++ {
		var cs []Cart
		for x := l; x >= 0; x-- {
			for y := l - x; y >= 0; y-- {
				cs = append(cs, Cart{x, y, l - x - y})
			}
		}
		cartCache[l] = cs
	}
}

// CartComponents returns the Cartesian components of angular momentum l.
func CartComponents(l int) []Cart { return cartCache[l] }

// NumCart returns the number of Cartesian components of angular momentum l.
func NumCart(l int) int { return (l + 1) * (l + 2) / 2 }

// NumSph returns the number of spherical components of angular momentum l.
func NumSph(l int) int { return 2*l + 1 }

// sphMatrix returns the (2l+1) x NumCart(l) matrix taking raw-polynomial
// Cartesian components (in CartComponents order) to the real spherical
// components used by this library. The rows are scaled so that all 2l+1
// spherical functions share the same self-overlap as the reference
// component used by basis.Build's normalization ("all-ones" component:
// x for p, xy for d), making contracted spherical functions unit-norm.
//
// Supported through l=2 (the basis sets here go up to d); higher l panics.
//
// Matrices through d are cached at init: the transform layer calls this
// per tensor slab, which used to dominate the allocation profile of
// d-quartet batches (the generated kernels themselves are zero-alloc).
func sphMatrix(l int) [][]float64 {
	if l < len(sphMatCache) {
		return sphMatCache[l]
	}
	return buildSphMatrix(l)
}

var sphMatCache [3][][]float64

func init() {
	for l := range sphMatCache {
		sphMatCache[l] = buildSphMatrix(l)
	}
}

func buildSphMatrix(l int) [][]float64 {
	switch l {
	case 0:
		return [][]float64{{1}}
	case 1:
		// Cartesian order (x, y, z); keep that order for "spherical" p.
		return [][]float64{
			{1, 0, 0},
			{0, 1, 0},
			{0, 0, 1},
		}
	case 2:
		// Cartesian order: xx, xy, xz, yy, yz, zz.
		s3 := 1.7320508075688772935 // sqrt(3)
		return [][]float64{
			{0, 1, 0, 0, 0, 0}, // xy
			{0, 0, 0, 0, 1, 0}, // yz
			{-1 / (2 * s3), 0, 0, -1 / (2 * s3), 0, 1 / s3}, // (2zz-xx-yy)/(2*sqrt(3))
			{0, 0, 1, 0, 0, 0},      // xz
			{0.5, 0, 0, -0.5, 0, 0}, // (xx-yy)/2
		}
	default:
		// f and beyond: generated real solid harmonics (solidharm.go).
		return generatedSphMatrix(l)
	}
}

// sphTransform1 applies the Cartesian-to-spherical transform to the first
// index of a tensor stored row-major with the first index of Cartesian
// dimension nc and trailing block size rest. Result has leading dimension
// ns. src and dst must not alias. A d index takes sphTransformD's straight
// lines; every other l runs its matrix.
func sphTransform1(l int, src, dst []float64, rest int) {
	if l == 2 {
		sphTransformD(src, dst, rest)
		return
	}
	sphTransformMatrix(l, src, dst, rest)
}

// sphTransformMatrix is sphTransform1 through sphMatrix(l): each output
// row is cleared, then the row's nonzero terms are added in column order.
func sphTransformMatrix(l int, src, dst []float64, rest int) {
	mat := sphMatrix(l)
	nc := NumCart(l)
	ns := NumSph(l)
	for s := 0; s < ns; s++ {
		row := mat[s]
		d := dst[s*rest : (s+1)*rest]
		for r := range d {
			d[r] = 0
		}
		for c := 0; c < nc; c++ {
			f := row[c]
			if f == 0 {
				continue
			}
			blk := src[c*rest : (c+1)*rest]
			for r, v := range blk {
				d[r] += f * v
			}
		}
	}
}

// sphTransformD is sphTransform1 for l = 2 without the matrix walk. Three
// of sphMatrix(2)'s rows (xy, yz, xz) are unit rows, so they are copies;
// the other two are written out with the matrix's own coefficients in its
// term order, so every value equals sphTransformMatrix's (whose leading
// 0 + turns a -0 into +0, the only difference).
func sphTransformD(src, dst []float64, rest int) {
	mat := sphMatrix(2)
	c20, c23, c25 := mat[2][0], mat[2][3], mat[2][5]
	c40, c43 := mat[4][0], mat[4][3]
	// Every row has xx's length, so the loop below needs no bounds check.
	xx := src[:rest]
	row := func(s []float64, c int) []float64 { return s[c*rest:][:len(xx)] }
	xy, xz, yy, yz, zz := row(src, 1), row(src, 2), row(src, 3), row(src, 4), row(src, 5)
	d0, d1, d2, d3, d4 := row(dst, 0), row(dst, 1), row(dst, 2), row(dst, 3), row(dst, 4)
	for r, x := range xx {
		y := yy[r]
		d0[r] = xy[r]
		d1[r] = yz[r]
		d2[r] = c20*x + c23*y + c25*zz[r]
		d3[r] = xz[r]
		d4[r] = c40*x + c43*y
	}
}

// sphTransform4 transforms a Cartesian quartet batch
// [na_c][nb_c][nc_c][nd_c] (row-major) into the spherical batch
// [na_s][nb_s][nc_s][nd_s] for angular momenta la..ld, using scratch.
// Returns a slice of the engine-owned scratch buffer.
func sphTransform4(la, lb, lc, ld int, cart []float64, scratch *[2][]float64) []float64 {
	dims := [4]int{NumCart(la), NumCart(lb), NumCart(lc), NumCart(ld)}
	ls := [4]int{la, lb, lc, ld}
	cur := cart
	toggle := 0
	for idx := 3; idx >= 0; idx-- {
		l := ls[idx]
		ncIdx := dims[idx]
		nsIdx := NumSph(l)
		// Identity transforms (s, p in this convention) need no work.
		if l <= 1 {
			dims[idx] = nsIdx
			continue
		}
		// Move the target index to the front by viewing the tensor as
		// (pre, idx, post) and transforming each pre-slab.
		pre := 1
		for i := 0; i < idx; i++ {
			pre *= dims[i]
		}
		post := 1
		for i := idx + 1; i < 4; i++ {
			post *= dims[i]
		}
		need := pre * nsIdx * post
		buf := &scratch[toggle]
		toggle = 1 - toggle
		if cap(*buf) < need {
			*buf = make([]float64, need)
		}
		out := (*buf)[:need]
		for p := 0; p < pre; p++ {
			srcSlab := cur[p*ncIdx*post : (p+1)*ncIdx*post]
			dstSlab := out[p*nsIdx*post : (p+1)*nsIdx*post]
			sphTransform1(l, srcSlab, dstSlab, post)
		}
		cur = out
		dims[idx] = nsIdx
	}
	return cur
}
