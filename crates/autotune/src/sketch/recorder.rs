//! The recording half of the rule engine: a [`Schedule`] that writes down
//! every primitive applied to it.

use std::collections::HashMap;

use atim_tir::compute::ComputeDef;
use atim_tir::error::{Result, TirError};
use atim_tir::schedule::{Attach, Binding, LoopInfo, LoopRef, Schedule};

use crate::trace::Instruction;

/// A [`Schedule`] wrapper that mirrors every applied primitive as a trace
/// [`Instruction`], mapping [`LoopRef`]s to virtual registers — the one
/// writer of structural instructions in the tree.
pub(super) struct SketchRecorder {
    sch: Schedule,
    pub(super) insts: Vec<Instruction>,
    pub(super) regs: usize,
    reg_of: HashMap<LoopRef, usize>,
}

impl SketchRecorder {
    pub(super) fn new(def: &ComputeDef) -> Self {
        SketchRecorder {
            sch: Schedule::new(def.clone()),
            insts: Vec::new(),
            regs: 0,
            reg_of: HashMap::new(),
        }
    }

    fn alloc(&mut self, l: LoopRef) -> usize {
        let r = self.regs;
        self.regs += 1;
        self.reg_of.insert(l, r);
        r
    }

    fn reg(&self, l: LoopRef) -> Result<usize> {
        self.reg_of.get(&l).copied().ok_or_else(|| {
            TirError::InvalidSchedule("sketch recorder referenced an untracked loop".into())
        })
    }

    pub(super) fn get_loop(&mut self, axis: usize) -> Result<LoopRef> {
        let l = self
            .sch
            .loops_of_axis(axis)
            .first()
            .copied()
            .ok_or_else(|| TirError::InvalidSchedule(format!("no loop iterates axis {axis}")))?;
        let dst = self.alloc(l);
        self.insts.push(Instruction::GetLoop { axis, dst });
        Ok(l)
    }

    pub(super) fn split(&mut self, l: LoopRef, factor: i64) -> Result<(LoopRef, LoopRef)> {
        let lv = self.reg(l)?;
        let (o, i) = self.sch.split(l, factor)?;
        let outer = self.alloc(o);
        let inner = self.alloc(i);
        self.insts.push(Instruction::Split {
            lv,
            factor,
            outer,
            inner,
        });
        Ok((o, i))
    }

    pub(super) fn bind(&mut self, l: LoopRef, binding: Binding) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.bind(l, binding)?;
        self.insts.push(Instruction::Bind { lv, binding });
        Ok(())
    }

    pub(super) fn rfactor(&mut self, l: LoopRef) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.rfactor(l)?;
        self.insts.push(Instruction::Rfactor { lv });
        Ok(())
    }

    pub(super) fn reorder(&mut self, order: &[LoopRef]) -> Result<()> {
        let regs: Vec<usize> = order
            .iter()
            .map(|&l| self.reg(l))
            .collect::<Result<Vec<_>>>()?;
        self.sch.reorder(order)?;
        self.insts.push(Instruction::Reorder { order: regs });
        Ok(())
    }

    pub(super) fn cache_read(&mut self, input: usize, at: LoopRef) -> Result<()> {
        let reg = self.reg(at)?;
        self.sch.cache_read(input, Attach::At(at))?;
        self.insts.push(Instruction::CacheRead { input, at: reg });
        Ok(())
    }

    pub(super) fn cache_write(&mut self, at: LoopRef) -> Result<()> {
        let reg = self.reg(at)?;
        self.sch.cache_write(Attach::At(at))?;
        self.insts.push(Instruction::CacheWrite { at: reg });
        Ok(())
    }

    pub(super) fn unroll(&mut self, l: LoopRef) -> Result<()> {
        let lv = self.reg(l)?;
        self.sch.unroll(l)?;
        self.insts.push(Instruction::Unroll { lv });
        Ok(())
    }

    pub(super) fn parallel_host(&mut self, threads: usize) {
        self.sch.parallel_host(threads);
        self.insts.push(Instruction::ParallelHost { threads });
    }

    pub(super) fn set_parallel_transfer(&mut self, enabled: bool) {
        self.sch.set_parallel_transfer(enabled);
        self.insts.push(Instruction::ParallelTransfer { enabled });
    }

    pub(super) fn loop_info(&self, l: LoopRef) -> Result<&LoopInfo> {
        self.sch.loop_info(l)
    }
}
