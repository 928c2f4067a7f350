//! Planar geometric primitives and predicates.
//!
//! Predicates are plain `f64` determinants with a relative-error filter:
//! results whose magnitude falls below the filter are treated as the
//! degenerate sign (0). The mesh generators jitter their input points, so
//! exact-arithmetic fallbacks are not needed at the scales used here
//! (coordinates O(1e4), separations ≥ 1e-6).

/// A point in the plane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist2(other).sqrt()
    }
}

/// Twice the signed area of triangle `abc`: positive iff `abc` is
/// counter-clockwise. Uses an error filter: near-degenerate values within
/// the floating-point error bound return exactly 0.
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;
    // Shewchuk's static filter constant for the 2D orientation test.
    let detsum = detleft.abs() + detright.abs();
    if det.abs() >= 3.3306690738754716e-16 * detsum {
        det
    } else {
        0.0
    }
}

/// In-circle predicate: positive iff `d` lies strictly inside the
/// circumcircle of the counter-clockwise triangle `abc`.
#[inline]
pub fn in_circle(a: Point, b: Point, c: Point, d: Point) -> f64 {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;
    let ad2 = adx * adx + ady * ady;
    let bd2 = bdx * bdx + bdy * bdy;
    let cd2 = cdx * cdx + cdy * cdy;
    let det = adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy);
    // Magnitude-based filter.
    let perm = (adx.abs() + ady.abs() + ad2)
        * (bdx.abs() + bdy.abs() + bd2)
        * (cdx.abs() + cdy.abs() + cd2);
    if det.abs() >= 1e-12 * perm.max(f64::MIN_POSITIVE) {
        det
    } else {
        0.0
    }
}

/// Signed area of triangle `abc` (positive = CCW).
#[inline]
pub fn tri_area(a: Point, b: Point, c: Point) -> f64 {
    0.5 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
}

/// Centroid of triangle `abc`.
#[inline]
pub fn centroid(a: Point, b: Point, c: Point) -> Point {
    Point::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
}

/// True if point `p` lies inside or on the boundary of CCW triangle `abc`.
#[inline]
pub fn point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool {
    orient2d(a, b, p) >= 0.0 && orient2d(b, c, p) >= 0.0 && orient2d(c, a, p) >= 0.0
}

/// Minimum interior angle of triangle `abc` in radians (mesh quality).
pub fn min_angle(a: Point, b: Point, c: Point) -> f64 {
    let la = b.dist(c);
    let lb = a.dist(c);
    let lc = a.dist(b);
    let angle = |opp: f64, s1: f64, s2: f64| {
        let cosv = ((s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)).clamp(-1.0, 1.0);
        cosv.acos()
    };
    angle(la, lb, lc)
        .min(angle(lb, la, lc))
        .min(angle(lc, la, lb))
}

#[cfg(test)]
mod tests {
    use super::*;

    const P00: Point = Point::new(0.0, 0.0);
    const P10: Point = Point::new(1.0, 0.0);
    const P01: Point = Point::new(0.0, 1.0);
    const P11: Point = Point::new(1.0, 1.0);

    #[test]
    fn orientation_signs() {
        assert!(orient2d(P00, P10, P01) > 0.0); // CCW
        assert!(orient2d(P00, P01, P10) < 0.0); // CW
        assert_eq!(orient2d(P00, P10, Point::new(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn orientation_filter_kills_roundoff_noise() {
        // Collinear points at awkward magnitudes: the naive determinant of
        // ((0.1,0.1),(0.4,0.4),(0.7,0.7)) suffers cancellation; the filter
        // must report exactly 0 rather than ±1e-17 noise.
        let a = Point::new(0.1, 0.1);
        let b = Point::new(0.4, 0.4);
        let c = Point::new(0.7, 0.7);
        assert_eq!(orient2d(a, b, c), 0.0);
        // A genuinely tiny-but-real offset well above the error bound is
        // preserved.
        assert!(orient2d(P00, P10, Point::new(0.5, 1e-9)) > 0.0);
    }

    #[test]
    fn in_circle_signs() {
        // Unit right triangle; circumcircle is centred at (0.5, 0.5), r = √2/2.
        let inside = Point::new(0.5, 0.5);
        let outside = Point::new(2.0, 2.0);
        assert!(in_circle(P00, P10, P01, inside) > 0.0);
        assert!(in_circle(P00, P10, P01, outside) < 0.0);
        // (1,1) is exactly on the circle.
        assert_eq!(in_circle(P00, P10, P01, P11), 0.0);
    }

    #[test]
    fn areas_and_centroid() {
        assert!((tri_area(P00, P10, P01) - 0.5).abs() < 1e-12);
        assert!((tri_area(P00, P01, P10) + 0.5).abs() < 1e-12);
        let g = centroid(P00, P10, P01);
        assert!((g.x - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn point_in_triangle_cases() {
        assert!(point_in_triangle(Point::new(0.2, 0.2), P00, P10, P01));
        assert!(!point_in_triangle(Point::new(0.9, 0.9), P00, P10, P01));
        assert!(point_in_triangle(Point::new(0.5, 0.0), P00, P10, P01)); // on edge
    }

    #[test]
    fn min_angle_equilateral() {
        let h = 3f64.sqrt() / 2.0;
        let ang = min_angle(P00, P10, Point::new(0.5, h));
        assert!((ang - std::f64::consts::FRAC_PI_3).abs() < 1e-9);
    }

    #[test]
    fn distances() {
        assert!((P00.dist(P11) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(P00.dist2(P10), 1.0);
    }
}
