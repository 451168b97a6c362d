//! Processor-time accounting and quota enforcement (§4.3).
//!
//! "The Cache Kernel monitors the consumption of processor time by each
//! thread and adds that to the total consumed by its kernel for that
//! processor, charging a premium for higher priority execution and a
//! discounted charge for lower priority execution. … If a kernel exceeds
//! its allocation for a given processor, the threads on that processor are
//! reduced to a low priority so that they only run when the processor is
//! otherwise idle."
//!
//! We track an exponentially decayed per-(kernel, CPU) charge and compare
//! it against the quota percentage at each accounting period.

use crate::ck::CacheKernel;
use crate::ids::ObjId;
use crate::objects::{Priority, IDLE_PRIORITY, MAX_CPUS};

/// Priority at and above which the premium rate applies (real-time band).
pub const PREMIUM_PRIORITY: Priority = 24;
/// Priority at and below which the discount rate applies (batch band).
pub const DISCOUNT_PRIORITY: Priority = 8;
/// Premium multiplier numerator/denominator (1.5×).
const PREMIUM_NUM: u64 = 3;
const PREMIUM_DEN: u64 = 2;
/// Discount multiplier (0.5×).
const DISCOUNT_NUM: u64 = 1;
const DISCOUNT_DEN: u64 = 2;

/// Charge `cycles` consumed at `priority`, applying the graduated rate.
pub fn graduated_charge(cycles: u64, priority: Priority) -> u64 {
    if priority >= PREMIUM_PRIORITY {
        cycles * PREMIUM_NUM / PREMIUM_DEN
    } else if priority <= DISCOUNT_PRIORITY {
        cycles * DISCOUNT_NUM / DISCOUNT_DEN
    } else {
        cycles
    }
}

/// Per-kernel, per-CPU accounting state.
#[derive(Clone, Debug, Default)]
pub struct KernelAccount {
    /// Charged cycles accumulated in the current period, per CPU.
    charged: [u64; MAX_CPUS],
    /// Decayed average charge per period, per CPU (fixed-point /256).
    avg: [u64; MAX_CPUS],
    /// Whether the kernel is currently demoted on each CPU.
    demoted: [bool; MAX_CPUS],
    /// Lifetime charged cycles (for reports).
    pub total_charged: u64,
    /// Loads shed with `Again` by overload protection (admission checks
    /// or reservation defence), charged against this kernel.
    pub loads_shed: u64,
}

impl KernelAccount {
    /// Record a graduated charge against `cpu`.
    pub fn charge(&mut self, cpu: usize, charged_cycles: u64) {
        self.charged[cpu] += charged_cycles;
        self.total_charged += charged_cycles;
    }

    /// Close an accounting period of `period_cycles` per CPU: fold the
    /// period's charge into the decayed average and update demotion state
    /// against `quota_pct`. Returns the CPUs whose demotion state changed.
    pub fn end_period(
        &mut self,
        period_cycles: u64,
        quota_pct: &[u8; MAX_CPUS],
    ) -> Vec<(usize, bool)> {
        let mut changed = Vec::new();
        for (cpu, quota) in quota_pct.iter().enumerate().take(MAX_CPUS) {
            let used = core::mem::take(&mut self.charged[cpu]);
            // avg <- 3/4 avg + 1/4 used   (EWMA, fixed point x256)
            self.avg[cpu] = (self.avg[cpu] * 3 + used * 256) / 4;
            let pct_x256 = (self.avg[cpu] * 100)
                .checked_div(period_cycles)
                .unwrap_or(0);
            let over = pct_x256 > *quota as u64 * 256;
            if over != self.demoted[cpu] {
                self.demoted[cpu] = over;
                changed.push((cpu, over));
            }
        }
        changed
    }

    /// Whether the kernel's threads are demoted on `cpu`.
    pub fn is_demoted(&self, cpu: usize) -> bool {
        self.demoted[cpu]
    }

    /// Decayed usage of `cpu` as a percentage of the period.
    pub fn usage_pct(&self, cpu: usize, period_cycles: u64) -> f64 {
        if period_cycles == 0 {
            return 0.0;
        }
        (self.avg[cpu] as f64 / 256.0) * 100.0 / period_cycles as f64
    }
}

impl CacheKernel {
    /// Effective scheduling priority of a thread slot: its descriptor
    /// priority, or idle if its kernel is currently demoted for exceeding
    /// its processor quota.
    pub fn effective_priority(&self, slot: u16) -> Priority {
        let t = match self.threads.get_slot(slot) {
            Some(t) => t,
            None => return IDLE_PRIORITY,
        };
        if self
            .kernels
            .get(t.owner)
            .map(|k| k.demoted)
            .unwrap_or(false)
        {
            IDLE_PRIORITY
        } else {
            t.desc.priority
        }
    }

    /// The account of the kernel in `slot`, opened on first use.
    pub(crate) fn account_mut(&mut self, slot: u16) -> &mut KernelAccount {
        let slot = slot as usize;
        if self.accounts.len() <= slot {
            self.accounts.resize_with(slot + 1, || None);
        }
        self.accounts[slot].get_or_insert_with(KernelAccount::default)
    }

    fn account(&self, kernel: ObjId) -> Option<&KernelAccount> {
        self.accounts.get(kernel.slot as usize)?.as_ref()
    }

    /// Enqueue a thread at its effective priority (executive helper).
    pub fn enqueue_thread(&mut self, slot: u16) {
        if self.sched.contains(slot) {
            return;
        }
        let p = self.effective_priority(slot);
        if self.threads.get_slot(slot).is_some() {
            self.sched.enqueue(slot, p);
        }
    }

    /// Record graduated CPU consumption for a thread's kernel (§4.3: a
    /// premium above normal priority, a discount below).
    pub fn account_consumption(&mut self, thread_slot: u16, cpu: usize, cycles: u64) {
        let (owner_slot, priority) = match self.threads.get_slot(thread_slot) {
            Some(t) => (t.owner.slot, t.desc.priority),
            None => return,
        };
        let charged = graduated_charge(cycles, priority);
        self.account_mut(owner_slot)
            .charge(cpu.min(MAX_CPUS - 1), charged);
    }

    /// Close an accounting period: update every kernel's decayed usage
    /// against its quota and apply/lift demotions. Returns the kernels
    /// whose demotion state changed.
    pub fn end_accounting_period(&mut self, period_cycles: u64) -> Vec<(ObjId, bool)> {
        let mut changed = Vec::new();
        for slot in 0..self.accounts.len() {
            let id = match self.kernels.id_of_slot(slot as u16) {
                Some(id) => id,
                None => continue,
            };
            // The kernel or its account can vanish between the period
            // event's emission and its delivery (a recovery sweep tearing
            // down a dead kernel); skip rather than abort the simulation.
            let Some(quota) = self.kernels.get(id).map(|k| k.desc.cpu_quota_pct) else {
                continue;
            };
            let Some(account) = self.accounts[slot].as_mut() else {
                continue;
            };
            let transitions = account.end_period(period_cycles, &quota);
            if transitions.is_empty() {
                continue;
            }
            // Any CPU over quota demotes the kernel's threads (we enforce
            // at kernel granularity; the account tracks per-CPU usage).
            let demoted = (0..MAX_CPUS).any(|c| account.is_demoted(c));
            let Some(k) = self.kernels.get_mut(id) else {
                continue;
            };
            if k.demoted != demoted {
                k.demoted = demoted;
                changed.push((id, demoted));
                self.apply_demotion(id);
            }
        }
        changed
    }

    /// Re-queue every ready thread of `kernel` at its (new) effective
    /// priority after a demotion change.
    fn apply_demotion(&mut self, kernel: ObjId) {
        let slots: Vec<u16> = self
            .threads
            .iter()
            .filter(|(_, t)| t.owner == kernel)
            .map(|(id, _)| id.slot)
            .collect();
        for slot in slots {
            let p = self.effective_priority(slot);
            self.sched.requeue(slot, p);
        }
    }

    /// Decayed CPU usage of a kernel on `cpu` as a percentage (reports).
    pub fn kernel_usage_pct(&self, kernel: ObjId, cpu: usize, period_cycles: u64) -> f64 {
        self.account(kernel)
            .map_or(0.0, |a| a.usage_pct(cpu, period_cycles))
    }

    /// Whether a kernel is currently demoted.
    pub fn kernel_demoted(&self, kernel: ObjId) -> bool {
        self.kernels.get(kernel).map(|k| k.demoted).unwrap_or(false)
    }

    /// Loads shed by overload protection charged to `kernel` (the
    /// per-kernel slice of the global `loads_shed` counter).
    pub fn kernel_loads_shed(&self, kernel: ObjId) -> u64 {
        self.account(kernel).map_or(0, |a| a.loads_shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graduated_rates() {
        assert_eq!(graduated_charge(100, 31), 150); // premium
        assert_eq!(graduated_charge(100, PREMIUM_PRIORITY), 150);
        assert_eq!(graduated_charge(100, 16), 100); // normal
        assert_eq!(graduated_charge(100, DISCOUNT_PRIORITY), 50); // discount
        assert_eq!(graduated_charge(100, 0), 50);
    }

    #[test]
    fn demotion_when_over_quota() {
        let mut a = KernelAccount::default();
        let quota = {
            let mut q = [0u8; MAX_CPUS];
            q[0] = 50;
            q
        };
        // Consume 100% of a 1000-cycle period repeatedly on CPU 0.
        let mut became_demoted = false;
        for _ in 0..8 {
            a.charge(0, 1000);
            for (cpu, over) in a.end_period(1000, &quota) {
                if cpu == 0 && over {
                    became_demoted = true;
                }
            }
        }
        assert!(became_demoted);
        assert!(a.is_demoted(0));
        assert!(!a.is_demoted(1));
        assert!(a.usage_pct(0, 1000) > 50.0);
    }

    #[test]
    fn demotion_lifts_as_usage_decays() {
        let mut a = KernelAccount::default();
        let quota = {
            let mut q = [0u8; MAX_CPUS];
            q[0] = 50;
            q
        };
        for _ in 0..8 {
            a.charge(0, 1000);
            a.end_period(1000, &quota);
        }
        assert!(a.is_demoted(0));
        // Idle periods decay the average below quota again.
        let mut lifted = false;
        for _ in 0..16 {
            for (cpu, over) in a.end_period(1000, &quota) {
                if cpu == 0 && !over {
                    lifted = true;
                }
            }
        }
        assert!(lifted);
        assert!(!a.is_demoted(0));
    }

    #[test]
    fn under_quota_never_demotes() {
        let mut a = KernelAccount::default();
        let quota = [30u8; MAX_CPUS];
        for _ in 0..32 {
            a.charge(2, 250); // 25% of the period
            let changed = a.end_period(1000, &quota);
            assert!(changed.iter().all(|(_, over)| !over));
        }
        assert!(!a.is_demoted(2));
    }

    #[test]
    fn premium_pushes_over_quota_faster() {
        // Two kernels burn identical raw cycles; the one at premium
        // priority is charged 1.5x and demotes sooner. This is the §4.3
        // incentive to run at lower priority.
        let quota = [60u8; MAX_CPUS];
        let mut hi = KernelAccount::default();
        let mut lo = KernelAccount::default();
        let mut hi_demoted_at = None;
        let mut lo_demoted_at = None;
        for round in 0..16 {
            hi.charge(0, graduated_charge(500, 30));
            lo.charge(0, graduated_charge(500, 16));
            hi.end_period(1000, &quota);
            lo.end_period(1000, &quota);
            if hi.is_demoted(0) && hi_demoted_at.is_none() {
                hi_demoted_at = Some(round);
            }
            if lo.is_demoted(0) && lo_demoted_at.is_none() {
                lo_demoted_at = Some(round);
            }
        }
        assert!(hi_demoted_at.is_some());
        assert!(
            lo_demoted_at.is_none(),
            "50% raw usage under 60% quota stays"
        );
    }
}
