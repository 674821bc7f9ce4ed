package cf

import "math"

// symEig eigen-decomposes the symmetric matrix g: Householder reduction to
// tridiagonal form, then implicit-shift QL on the tridiagonal matrix with the
// rotations accumulated into the Householder basis — the textbook
// tred2/tql2 pair (Wilkinson & Reinsch; EISPACK), about 3·n³ multiply-adds
// where cyclic Jacobi needs a dozen sweeps of 2·n³. Only the upper triangle
// of g (row ≤ column) is read. The eigenvalues come back in descending
// order; g itself is overwritten and returned as vecs, whose ROW f is the
// unit eigenvector of vals[f] (the transposed layout keeps every inner loop
// on contiguous memory). No sign convention is imposed: a triplet's joint
// sign cancels in everything Train derives from it.
//
// QL is cut off after maxQLIter iterations per eigenvalue, so non-finite
// input terminates (with meaningless output) instead of hanging; finite
// symmetric input converges in two or three.
func symEig(g *Dense) (vals []float64, vecs *Dense) {
	n := g.R
	d, e := make([]float64, n), make([]float64, n)
	if n == 0 {
		return d, g
	}
	tridiagonalize(g.Data, d, e)
	implicitQL(g.Data, d, e)

	// Selection sort, descending, swapping the eigenvector rows along.
	z := g.Data
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[best] {
				best = j
			}
		}
		if best != i {
			d[i], d[best] = d[best], d[i]
			ri, rb := z[i*n:(i+1)*n], z[best*n:(best+1)*n]
			for k := range ri {
				ri[k], rb[k] = rb[k], ri[k]
			}
		}
	}
	return d, g
}

// tridiagonalize is tred2 on the transposed layout: z (n×n, row-major,
// symmetric on entry) becomes Qᵀ, where QᵀAQ is the symmetric tridiagonal
// matrix with diagonal d and sub-diagonal e[1:].
func tridiagonalize(z, d, e []float64) {
	n := len(d)
	row := func(i int) []float64 { return z[i*n : (i+1)*n] }
	for j := range d {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under- and overflow.
		scale, h := 0.0, 0.0
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 { //lint:allow(floatcmp) exactly-zero row: nothing to reflect, skip the transformation
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i], z[i*n+j] = 0, 0
			}
			d[i] = 0
			continue
		}
		// Generate the Householder vector.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining rows.
		for j := 0; j < i; j++ {
			f = d[j]
			z[i*n+j] = f
			zj := row(j)
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := row(j)
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		next := row(i + 1)
		if h := d[i+1]; h != 0 { //lint:allow(floatcmp) exactly zero marks a skipped reflection above
			for k := 0; k <= i; k++ {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := row(j)
				g := 0.0
				for k := 0; k <= i; k++ {
					g += next[k] * zj[k]
				}
				for k := 0; k <= i; k++ {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(next[:i+1])
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// maxQLIter bounds the QL iterations spent on one eigenvalue (EISPACK's 30,
// doubled).
const maxQLIter = 60

// implicitQL is tql2 on the transposed layout: it diagonalises the symmetric
// tridiagonal matrix (d, e[1:]) in place, applying every plane rotation to
// the rows of z, so that on return d holds the eigenvalues and row f of z
// the eigenvector of d[f].
func implicitQL(z, d, e []float64) {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		// Find a negligible sub-diagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is an eigenvalue already; otherwise iterate.
		for iter := 0; m > l && iter < maxQLIter; iter++ {
			// Form the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// The QL sweep, from m down to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				lo, hi := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
				for k, zh := range hi {
					hi[k] = s*lo[k] + c*zh
					lo[k] = c*lo[k] - s*zh
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}
