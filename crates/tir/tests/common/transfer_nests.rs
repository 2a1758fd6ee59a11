//! Seeded random host-transfer loop nests for the summarizer's acceptance
//! property (shared with `crates/sim/tests/transfer_proptests.rs` through
//! `#[path]`): whatever the static analysis marks and the runtime probe
//! accepts must count exactly like iteration-by-iteration execution.

use std::sync::Arc;

use atim_tir::buffer::Var;
use atim_tir::expr::Expr;
use atim_tir::stmt::TransferDir;
use atim_tir::{Buffer, DType, MemScope, Stmt};

/// Loop extents on both sides of the runner's `SUMMARIZE_MIN_EXTENT` (16).
const EXTENTS: [i64; 8] = [1, 2, 5, 15, 16, 17, 24, 33];

/// Largest element count a generated transfer moves: `2·v + 8` at the
/// last iteration of the longest loop.
const MAX_ELEMS: i64 = 2 * 32 + 8;

/// A generated nest and what a functional run of it needs allocated.
pub struct TransferNest {
    /// `for v0 { for v1 { for v2 { [guards] transfers } } }`, 1–3 deep;
    /// inner extents may clamp an enclosing variable.
    pub stmt: Stmt,
    /// Host-side buffer (allocate on DPU context 0).
    pub global: Arc<Buffer>,
    /// Per-DPU buffer (allocate on DPUs `0..dpus`).
    pub mram: Arc<Buffer>,
    /// One past the largest DPU index the nest addresses.
    pub dpus: i64,
    /// Nest depth.
    pub depth: usize,
    /// Distinct loop levels the static analysis must refuse to mark: those
    /// an `Eq` guard or a `max(0, min(c, E - a·v))` size varies with, and
    /// those a `min`/`max` extent two or more levels below varies with.
    pub unmarkable_levels: usize,
}

/// splitmix64: the whole nest is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.next() as usize % options.len()]
    }
}

/// Generator state: the loop variables, the buffers (sized up front for
/// the largest offset `affine` can draw) and what the draws so far imply.
struct Builder {
    rng: Rng,
    vars: Vec<Var>,
    extents: Vec<i64>,
    unmarkable: Vec<bool>,
    global: Arc<Buffer>,
    mram: Arc<Buffer>,
    dpus: i64,
}

impl Builder {
    /// `Σ coeff_k·v_k + offset` over the `scope` outermost variables, with
    /// its largest value (coefficients are non-negative).
    fn affine(&mut self, scope: usize, max_coeff: i64) -> (Expr, i64) {
        let offset = self.rng.range(0, 3);
        let (mut expr, mut max) = (Expr::int(offset), offset);
        for k in 0..scope {
            let coeff = self.rng.range(0, max_coeff);
            expr = expr.add(Expr::var(&self.vars[k]).mul(Expr::int(coeff)));
            max += coeff * (self.extents[k] - 1);
        }
        (expr, max)
    }

    /// One transfer in the body of loop level `scope - 1`; in-bounds for
    /// buffers of [`MAX_ELEMS`] slack past the largest offset.
    fn transfer(&mut self, scope: usize) -> Stmt {
        let level = self.rng.range(0, scope as i64 - 1) as usize;
        let (v, last) = (Expr::var(&self.vars[level]), self.extents[level] - 1);
        let elems = match self.rng.range(0, 2) {
            0 => Expr::int(self.rng.range(0, 8)),
            // Affine, possibly negative over part of the range (the
            // transfer clamps it to an empty copy).
            1 => {
                let a = self.rng.range(-2, 2);
                let b = self.rng.range(-10, 8);
                v.mul(Expr::int(a)).add(Expr::int(b))
            }
            // The misaligned tail tile.
            _ => {
                self.unmarkable[level] = true;
                let (c, a) = (self.rng.range(1, 8), self.rng.range(1, 3));
                let e = self.rng.range(0, a * last + c);
                let tail = Expr::int(e).sub(v.mul(Expr::int(a)));
                Expr::int(0).max(Expr::int(c).min(tail))
            }
        };
        let (dpu, max_dpu) = self.affine(scope, 2);
        let (global_off, _) = self.affine(scope, 9);
        let (mram_off, _) = self.affine(scope, 4);
        self.dpus = self.dpus.max(max_dpu + 1);
        Stmt::HostTransfer {
            dir: self.rng.pick(&[TransferDir::H2D, TransferDir::D2H]),
            dpu,
            global: self.global.clone(),
            global_off,
            mram: self.mram.clone(),
            mram_off,
            elems,
            parallel: self.rng.next() % 4 != 0,
        }
    }

    /// A guard around `body` at loop level `scope - 1`: monotone
    /// `a·v + w < k` / `v >= k` whose threshold lies inside the range (so
    /// some flip mid-loop), or an `Eq` on one level.
    fn guard(&mut self, scope: usize, body: Stmt) -> Stmt {
        let level = self.rng.range(0, scope as i64 - 1) as usize;
        let (v, last) = (Expr::var(&self.vars[level]), self.extents[level] - 1);
        let k = Expr::int(self.rng.range(-1, last + 1));
        let cond = match self.rng.range(0, 3) {
            0 => {
                self.unmarkable[level] = true;
                v.eq_expr(k)
            }
            1 => v.ge(k),
            _ => {
                let other = self.rng.range(0, scope as i64 - 1) as usize;
                let a = self.rng.range(1, 2);
                v.mul(Expr::int(a)).add(Expr::var(&self.vars[other])).lt(k)
            }
        };
        Stmt::if_then(cond, body)
    }

    /// The extent of loop level `level`: its drawn constant, or (one time
    /// in two below the outermost level) a concave or convex clamp of an
    /// enclosing variable that never exceeds that constant — the tail
    /// tile `min(c, E - a·v)`, a tent `min(c, a·v - s, E - a·v)` that can
    /// be positive only between the probes, or `max(c - a·v, d)`.
    fn extent(&mut self, level: usize) -> Expr {
        let c = self.extents[level];
        if level == 0 || self.rng.next() % 2 != 0 {
            return Expr::int(c);
        }
        let outer = self.rng.range(0, level as i64 - 1) as usize;
        // Only the direct parent's probes compare this extent.
        if outer + 1 != level {
            self.unmarkable[outer] = true;
        }
        let (v, last) = (Expr::var(&self.vars[outer]), self.extents[outer] - 1);
        let a = self.rng.range(1, 3);
        let av = v.mul(Expr::int(a));
        let tail = Expr::int(self.rng.range(0, a * last + c)).sub(av.clone());
        match self.rng.range(0, 2) {
            0 => Expr::int(c).min(tail),
            // Rising past 0 after iteration 1 and falling back below it
            // before the last one.
            1 => {
                let s = self.rng.range(a, (a * last / 2).max(a));
                let tail = Expr::int(self.rng.range(s, (a * last - a).max(s))).sub(av.clone());
                Expr::int(c).min(av.sub(Expr::int(s)).min(tail))
            }
            _ => Expr::int(c).sub(av).max(Expr::int(self.rng.range(-3, c))),
        }
    }
}

/// Builds the nest for `seed`.
pub fn transfer_nest(seed: u64) -> TransferNest {
    let mut rng = Rng(seed);
    let depth = rng.range(1, 3) as usize;
    let extents: Vec<i64> = (0..depth).map(|_| rng.pick(&EXTENTS)).collect();
    // Offsets stay below `3 + 9·Σ(extent - 1)` (see `Builder::affine`).
    let span: i64 = extents.iter().map(|e| e - 1).sum();
    let mut b = Builder {
        rng,
        vars: (0..depth).map(|k| Var::new(format!("v{k}"))).collect(),
        extents,
        unmarkable: vec![false; depth],
        global: Buffer::new(
            "G",
            DType::F32,
            vec![4 + 9 * span + MAX_ELEMS],
            MemScope::Global,
        ),
        mram: Buffer::new(
            "M",
            DType::F32,
            vec![4 + 4 * span + MAX_ELEMS],
            MemScope::Mram,
        ),
        dpus: 1,
    };

    // Innermost body: 1–2 transfers.  Every enclosing level follows the
    // inner loop with 0–2 transfers of its own (its probe then sees the
    // inner loop's aggregated sites next to plain ones); any body may sit
    // under a guard.
    let mut inner: Option<Stmt> = None;
    for scope in (1..=depth).rev() {
        let own = b.rng.range(if inner.is_some() { 0 } else { 1 }, 2);
        let mut stmts: Vec<Stmt> = inner.take().into_iter().collect();
        for _ in 0..own {
            stmts.push(b.transfer(scope));
        }
        let mut body = Stmt::seq(stmts);
        if b.rng.next() % 3 == 0 {
            body = b.guard(scope, body);
        }
        let extent = b.extent(scope - 1);
        inner = Some(Stmt::for_serial(b.vars[scope - 1].clone(), extent, body));
    }
    TransferNest {
        stmt: inner.expect("depth >= 1"),
        global: b.global,
        mram: b.mram,
        dpus: b.dpus,
        depth,
        unmarkable_levels: b.unmarkable.iter().filter(|&&u| u).count(),
    }
}
