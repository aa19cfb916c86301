//! Benchmark-owned, seeded input generation: a SplitMix64 stream, a
//! Zipf sampler over vertex ranks, and the LinkBench operation mixes.
//!
//! Nothing here comes from the program under test, so a change to the
//! engine's own workload generators cannot change the inputs.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf-distributed vertex ids over `[0, n)`: ranks come from
/// rejection-inversion sampling (Hörmann & Derflinger), and rank `r` maps
/// to id `r * P mod n` for a prime `P > n`, a bijection that scatters the
/// hot vertices over the id space.
#[derive(Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

const SCATTER_PRIME: u128 = 2_654_435_761;

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && (n as u128) < SCATTER_PRIME && s > 0.0 && s != 1.0);
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(n as f64 + 0.5, s);
        let threshold = 2.0 - h_integral_inv(h_integral(2.5, s) - h(2.0, s), s);
        Zipf {
            n,
            s,
            h_x1,
            h_n,
            threshold,
        }
    }

    /// A rank in `[1, n]`; rank 1 is the most popular.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.s);
            let k = ((x + 0.5) as u64).clamp(1, self.n);
            let kf = k as f64;
            if kf - x <= self.threshold || u >= h_integral(kf + 0.5, self.s) - h(kf, self.s) {
                return k;
            }
        }
    }

    /// A vertex id in `[0, n)`.
    pub fn id(&self, rng: &mut Rng) -> u64 {
        self.id_of_rank(self.rank(rng))
    }

    /// The vertex id holding popularity rank `rank` (1-based).
    pub fn id_of_rank(&self, rank: u64) -> u64 {
        ((rank - 1) as u128 * SCATTER_PRIME % self.n as u128) as u64
    }
}

fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

fn h_integral(x: f64, s: f64) -> f64 {
    let lx = x.ln();
    helper2((1.0 - s) * lx) * lx
}

fn h_integral_inv(x: f64, s: f64) -> f64 {
    let t = (x * (1.0 - s)).max(-1.0);
    (helper1(t) * x).exp()
}

/// `ln(1 + x) / x`, accurate near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, accurate near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// LinkBench operation types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    GetNode,
    UpdateNode,
    AddNode,
    GetLink,
    GetLinkList,
    CountLinks,
    AddLink,
    DeleteLink,
    UpdateLink,
}

impl Op {
    pub const ALL: [Op; 9] = [
        Op::GetNode,
        Op::UpdateNode,
        Op::AddNode,
        Op::GetLink,
        Op::GetLinkList,
        Op::CountLinks,
        Op::AddLink,
        Op::DeleteLink,
        Op::UpdateLink,
    ];

    pub fn is_read(self) -> bool {
        matches!(
            self,
            Op::GetNode | Op::GetLink | Op::GetLinkList | Op::CountLinks
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::GetNode => "get_node",
            Op::UpdateNode => "update_node",
            Op::AddNode => "add_node",
            Op::GetLink => "get_link",
            Op::GetLinkList => "get_link_list",
            Op::CountLinks => "count_links",
            Op::AddLink => "add_link",
            Op::DeleteLink => "delete_link",
            Op::UpdateLink => "update_link",
        }
    }

    /// Position in [`Op::ALL`], which lists the variants in declaration
    /// order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A cumulative distribution over [`Op::ALL`].
#[derive(Clone)]
pub struct Mix {
    cdf: [f64; 9],
}

impl Mix {
    fn from_weights(w: [f64; 9]) -> Self {
        let total: f64 = w.iter().sum();
        let mut cdf = [0.0; 9];
        let mut acc = 0.0;
        for (c, x) in cdf.iter_mut().zip(w) {
            acc += x / total;
            *c = acc;
        }
        cdf[8] = 1.0;
        Mix { cdf }
    }

    /// LinkBench's default mix: 69% reads, 31% writes.
    pub fn dflt() -> Self {
        Self::from_weights([12.9, 7.4, 2.6, 0.5, 50.7, 4.9, 9.0, 3.0, 8.0])
    }

    /// The TAO production mix: 99.8% reads.
    pub fn tao() -> Self {
        Self::from_weights([28.9, 0.04, 0.03, 15.7, 40.9, 14.3, 0.08, 0.02, 0.03])
    }

    pub fn sample(&self, rng: &mut Rng) -> Op {
        let u = rng.f64();
        let i = self.cdf.iter().position(|&c| u < c).unwrap_or(8);
        Op::ALL[i]
    }
}

/// One generated request: an operation and its two vertex arguments.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub op: Op,
    pub src: u64,
    pub dst: u64,
}

/// A closed-loop client's request stream.
pub struct Generator {
    mix: Mix,
    keys: Zipf,
    rng: Rng,
}

impl Generator {
    pub fn new(mix: Mix, keys: Zipf, seed: u64, stream: u64) -> Self {
        Generator {
            mix,
            keys,
            rng: Rng::new(seed, stream),
        }
    }

    pub fn next(&mut self) -> Request {
        let op = self.mix.sample(&mut self.rng);
        let src = self.keys.id(&mut self.rng);
        let dst = self.keys.id(&mut self.rng);
        Request { op, src, dst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mk = || Generator::new(Mix::dflt(), Zipf::new(1000, 0.8), 7, 1);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..1000 {
            let (x, y) = (a.next(), b.next());
            assert_eq!((x.op, x.src, x.dst), (y.op, y.src, y.dst));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.8);
        let mut rng = Rng::new(3, 0);
        let mut top = 0;
        for _ in 0..100_000 {
            let r = z.rank(&mut rng);
            assert!((1..=10_000).contains(&r));
            if r <= 100 {
                top += 1;
            }
        }
        // Zipf(0.8) over 10k ranks puts about a quarter of the mass on the
        // top 1%; a uniform draw would put 1% there.
        assert!(top > 15_000 && top < 40_000, "top-100 share {top}");
    }

    #[test]
    fn index_matches_all() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn mixes_have_the_linkbench_write_shares() {
        let share = |m: Mix| {
            let mut rng = Rng::new(1, 0);
            let w = (0..200_000)
                .filter(|_| !m.sample(&mut rng).is_read())
                .count();
            w as f64 / 200_000.0
        };
        assert!((share(Mix::dflt()) - 0.31).abs() < 0.01);
        assert!(share(Mix::tao()) < 0.005);
    }
}
