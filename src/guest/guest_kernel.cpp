#include "guest/guest_kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace asman::guest {

GuestKernel::GuestKernel(sim::Simulator& simulation,
                         vmm::HypervisorPort& hypervisor, vmm::VmId vm_id,
                         Config cfg, sim::Trace* trace)
    : sim_(simulation),
      hv_(hypervisor),
      vm_id_(vm_id),
      cfg_(cfg),
      trace_(trace),
      rng_(cfg.seed ^ (0x5151u + vm_id)),
      vcpus_(cfg.n_vcpus),
      stats_(cfg.keep_wait_samples) {
  timer_lock_ = create_spinlock();
  rq_locks_.reserve(cfg_.n_vcpus);
  for (std::uint32_t v = 0; v < cfg_.n_vcpus; ++v) {
    rq_locks_.push_back(create_spinlock());
    // IRQ pseudo-thread: the identity under which tick handlers hold locks.
    auto irq = std::make_unique<Thread>();
    irq->id = static_cast<Tid>(threads_.size());
    irq->vcpu = v;
    irq->state = TState::kIrq;
    vcpus_[v].irq_tid = irq->id;
    threads_.push_back(std::move(irq));
  }
}

GuestKernel::~GuestKernel() = default;

// --- setup -------------------------------------------------------------------

std::uint32_t GuestKernel::create_spinlock() {
  locks_.push_back(SpinLock{});
  return static_cast<std::uint32_t>(locks_.size() - 1);
}

std::uint32_t GuestKernel::create_mutex() {
  const auto fq = static_cast<std::uint32_t>(futexes_.size());
  futexes_.push_back(FutexQ{create_spinlock(), {}});
  mutexes_.push_back(Mutex{false, fq});
  return static_cast<std::uint32_t>(mutexes_.size() - 1);
}

std::uint32_t GuestKernel::create_barrier(std::uint32_t parties,
                                          bool spin_only) {
  assert(parties >= 1);
  const auto fq = static_cast<std::uint32_t>(futexes_.size());
  futexes_.push_back(FutexQ{create_spinlock(), {}});
  barriers_.push_back(Barrier{parties, 0, 0, fq, spin_only, {}});
  return static_cast<std::uint32_t>(barriers_.size() - 1);
}

std::uint32_t GuestKernel::create_semaphore(std::int32_t initial) {
  const auto fq = static_cast<std::uint32_t>(futexes_.size());
  futexes_.push_back(FutexQ{create_spinlock(), {}});
  semaphores_.push_back(Semaphore{initial, fq});
  return static_cast<std::uint32_t>(semaphores_.size() - 1);
}

Tid GuestKernel::spawn(std::unique_ptr<ThreadProgram> prog,
                       std::uint32_t vcpu) {
  assert(vcpu < cfg_.n_vcpus);
  auto th = std::make_unique<Thread>();
  th->id = static_cast<Tid>(threads_.size());
  th->vcpu = vcpu;
  th->prog = std::move(prog);
  th->state = TState::kReady;
  vcpus_[vcpu].runq.push_back(th->id);
  threads_.push_back(std::move(th));
  ++user_thread_count_;
  return threads_.back()->id;
}

bool GuestKernel::thread_done(Tid t) const {
  return threads_[t]->state == TState::kDone;
}

Cycles GuestKernel::thread_finish_time(Tid t) const {
  return threads_[t]->finish_time;
}

// --- execution engine ---------------------------------------------------------

Tid GuestKernel::executing_on(std::uint32_t v) const {
  const VcpuCtx& c = vcpus_[v];
  return c.in_irq ? c.irq_tid : c.current;
}

bool GuestKernel::is_executing(Tid t) const {
  const Thread& th = *threads_[t];
  const VcpuCtx& c = vcpus_[th.vcpu];
  if (!c.online) return false;
  return executing_on(th.vcpu) == t;
}

void GuestKernel::activate(Tid t) {
  Thread& th = *threads_[t];
  Activity& a = th.act;
  switch (a.kind) {
    case ActKind::kNone:
      return;
    case ActKind::kBurn:
      a.started_at = sim_.now();
      a.ev = sim_.after(a.remaining, [this, t] { burn_complete(t); });
      return;
    case ActKind::kSpin: {
      SpinLock& l = locks_[a.lock];
      if (l.owner == kNoTid) {
        // The lock was released while we were offline: take it now
        // (plain pre-ticket spinlock semantics — first online spinner wins).
        for (std::size_t i = 0; i < l.waiters.size(); ++i) {
          if (l.waiters[i].tid == t) {
            grant_to_waiter(a.lock, i);
            return;
          }
        }
        assert(false && "spinning thread missing from waiter list");
        return;
      }
      // Still held: if the wall-clock wait crossed the over-threshold limit
      // while this VCPU was offline, report it now (the monitoring code in
      // the real kernel runs inside the spin loop, so it fires as soon as
      // the spinner executes again).
      for (auto& w : l.waiters) {
        if (w.tid != t) continue;
        if (!w.reported &&
            (w.report_pending ||
             sim_.now() - w.since >= cfg_.over_threshold)) {
          w.reported = true;
          w.report_pending = false;
          if (observer_) observer_->on_over_threshold();
        }
        return;
      }
      assert(false && "spinning thread missing from waiter list");
      return;
    }
  }
}

void GuestKernel::deactivate(Tid t) {
  Thread& th = *threads_[t];
  Activity& a = th.act;
  if (a.kind == ActKind::kBurn && a.ev.valid()) {
    sim_.cancel(a.ev);
    a.ev = {};
    a.remaining = sim::saturating_sub(a.remaining, sim_.now() - a.started_at);
  }
  // kSpin: wall-clock waiting continues; nothing to pause.
}

void GuestKernel::burn(Tid t, Cycles len, bool kernel, Step then) {
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kNone && "thread already has an activity");
  th.act.kind = ActKind::kBurn;
  th.act.kernel = kernel;
  th.act.remaining = len;
  th.act.then = then;
  th.act.ev = {};
  if (is_executing(t)) activate(t);
}

void GuestKernel::burn_complete(Tid t) {
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kBurn);
  th.act.ev = {};
  th.act.kind = ActKind::kNone;
  step(t, std::exchange(th.act.then, Step::kNone));
  maybe_deliver_pending(th.vcpu);
}

void GuestKernel::repurpose_burn(Tid t, Cycles extra, Step instead) {
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kBurn);
  if (th.act.ev.valid()) {
    sim_.cancel(th.act.ev);
    th.act.ev = {};
  }
  th.act.kind = ActKind::kBurn;
  th.act.kernel = false;
  th.act.remaining = extra;
  th.act.then = instead;
  if (is_executing(t)) activate(t);
}

// Each case is one continuation point of a kernel path; paths are listed in
// the order their ops appear below.
void GuestKernel::step(Tid t, Step s) {
  Thread& th = *threads_[t];
  Frame& f = th.frame;
  switch (s) {
    case Step::kNone:
      assert(false && "no step to run");
      return;
    case Step::kNextOp:
      next_op(t);
      return;
    case Step::kMutexRetry:
      mutex_retry(t);
      return;
    case Step::kContinueSpin:
      f.spun += cfg_.spin_yield_period;
      barrier_spin_loop(t);
      return;

    case Step::kMutexUnlock:
      burn(t, Cycles{100}, false, Step::kMutexWakeCheck);
      return;
    case Step::kMutexWakeCheck: {
      Mutex& m = mutexes_[f.obj];
      m.locked = false;
      if (!futexes_[m.fq].sleepers.empty()) {
        futex_wake(t, m.fq, 1);
      } else {
        next_op(t);
      }
      return;
    }

    case Step::kFutexWaitLock:
      lock_acquire(t, futexes_[f.fq].bucket_lock, Step::kFutexWaitEnqueue);
      return;
    case Step::kFutexWaitEnqueue:
      burn(t, cfg_.futex_enqueue_hold, true, Step::kFutexWaitCheck);
      return;
    case Step::kFutexWaitCheck:
      futex_wait_check(t);
      return;
    case Step::kSleepRqHold:
      burn(t, cfg_.rq_wake_hold, true, Step::kSleepBlock);
      return;
    case Step::kSleepBlock:
      lock_release(t, own_rq(t));
      block_current(t, f.resume);
      return;

    case Step::kFutexWakeLock:
      lock_acquire(t, futexes_[f.fq].bucket_lock, Step::kFutexWakeHold);
      return;
    case Step::kFutexWakeHold:
      f.wake_n = static_cast<std::uint32_t>(std::min<std::size_t>(
          f.wake_n, futexes_[f.fq].sleepers.size()));
      burn(t,
           cfg_.futex_wake_base +
               Cycles{cfg_.futex_wake_per_thread.v * f.wake_n},
           true, Step::kFutexWakeTake);
      return;
    case Step::kFutexWakeTake: {
      FutexQ& q = futexes_[f.fq];
      const auto taken =
          q.sleepers.begin() + static_cast<std::ptrdiff_t>(f.wake_n);
      th.woken.assign(q.sleepers.begin(), taken);
      q.sleepers.erase(q.sleepers.begin(), taken);
      f.wake_i = 0;
      lock_release(t, q.bucket_lock);
      wake_chain(t);
      return;
    }
    case Step::kWakeHold:
      burn(t, cfg_.rq_wake_hold, true, Step::kWakeDone);
      return;
    case Step::kWakeDone: {
      const Tid w = th.woken[f.wake_i++];
      lock_release(t, own_rq(w));
      make_ready(w);
      wake_chain(t);
      return;
    }

    case Step::kBarrierArrive:
      barrier_arrive(t);
      return;
    case Step::kSpinChunk:
      spin_yield(t);
      return;
    case Step::kYieldLock:
      lock_acquire(t, own_rq(t), Step::kYieldHold);
      return;
    case Step::kYieldHold:
      burn(t, cfg_.yield_hold, true, Step::kYieldRelease);
      return;
    case Step::kYieldRelease:
      lock_release(t, own_rq(t));
      if (f.remote_rq == own_rq(t)) {
        yield_cpu(t, Step::kContinueSpin);
      } else {
        lock_acquire(t, f.remote_rq, Step::kProbeHold);
      }
      return;
    case Step::kProbeHold:
      burn(t, cfg_.balance_hold, true, Step::kProbeRelease);
      return;
    case Step::kProbeRelease:
      lock_release(t, f.remote_rq);
      yield_cpu(t, Step::kContinueSpin);
      return;

    case Step::kSemWaitLock:
      lock_acquire(t, futexes_[semaphores_[f.obj].fq].bucket_lock,
                   Step::kSemWaitHold);
      return;
    case Step::kSemWaitHold:
      burn(t, Cycles{300}, true, Step::kSemWaitCheck);
      return;
    case Step::kSemWaitCheck:
      sem_wait_check(t);
      return;
    case Step::kSemPostLock:
      lock_acquire(t, futexes_[semaphores_[f.obj].fq].bucket_lock,
                   Step::kSemPostHold);
      return;
    case Step::kSemPostHold:
      burn(t, Cycles{300}, true, Step::kSemPostCheck);
      return;
    case Step::kSemPostCheck:
      sem_post_check(t);
      return;

    case Step::kSleepTimer:
      sim_.after(f.len, [this, t] {
        if (threads_[t]->state == TState::kBlocked) make_ready(t);
      });
      block_current(t, Step::kNextOp);
      return;

    case Step::kTickLock:
      lock_acquire(t, timer_lock_, Step::kTickHold);
      return;
    case Step::kTickHold:
      burn(t, cfg_.tick_lock_hold, true, Step::kTickRelease);
      return;
    case Step::kTickRelease:
      tick_release(t);
      return;
    case Step::kTickBalanceHold:
      burn(t, cfg_.balance_hold, true, Step::kTickBalanceRelease);
      return;
    case Step::kTickBalanceRelease:
      lock_release(t, f.remote_rq);
      finish_tick(th.vcpu);
      return;
  }
}

// --- spinlocks -----------------------------------------------------------------

void GuestKernel::record_spin_wait(Cycles waited) {
  ++stats_.spin_acquisitions;
  stats_.spin_waits.add(waited);
  if (observer_) observer_->on_spin_acquired(waited);
}

void GuestKernel::lock_acquire(Tid t, std::uint32_t lock, Step then) {
  assert(is_executing(t));
  SpinLock& l = locks_[lock];
  Thread& th = *threads_[t];
  if (l.owner == kNoTid) {
    l.owner = t;
    record_spin_wait(cfg_.uncontended_acquire);
    th.frame.lock_wait = cfg_.uncontended_acquire;
    step(t, then);
    return;
  }
  ++stats_.spin_contended;
  assert(th.act.kind == ActKind::kNone);
  th.act.kind = ActKind::kSpin;
  th.act.kernel = true;
  th.act.lock = lock;
  th.act.then = then;
  SpinWaiter w;
  w.tid = t;
  w.since = sim_.now();
  w.cross_ev = sim_.after(cfg_.over_threshold,
                          [this, lock, t] { spin_cross_check(lock, t); });
  l.waiters.push_back(w);
  note_trace(sim::TraceKind::kLockSpin, th.vcpu, t, lock);
}

void GuestKernel::spin_cross_check(std::uint32_t lock, Tid t) {
  SpinLock& l = locks_[lock];
  for (auto& w : l.waiters) {
    if (w.tid != t) continue;
    w.cross_ev = {};
    if (w.reported) return;
    if (threads_[t]->act.kind != ActKind::kSpin) return;  // defensive
    if (vcpus_[threads_[t]->vcpu].online) {
      w.reported = true;
      if (observer_) observer_->on_over_threshold();
    } else {
      // The spinner itself is descheduled; the report fires as soon as it
      // executes its spin loop again (activate()).
      w.report_pending = true;
    }
    return;
  }
}

void GuestKernel::grant_to_waiter(std::uint32_t lock, std::size_t idx) {
  SpinLock& l = locks_[lock];
  const SpinWaiter w = l.waiters[idx];
  l.waiters.erase(l.waiters.begin() +
                  static_cast<std::ptrdiff_t>(idx));
  l.owner = w.tid;
  if (w.cross_ev.valid()) sim_.cancel(w.cross_ev);
  Thread& th = *threads_[w.tid];
  assert(th.act.kind == ActKind::kSpin);
  th.act.kind = ActKind::kNone;
  const Cycles waited = sim_.now() - w.since;
  record_spin_wait(waited);
  note_trace(sim::TraceKind::kLockAcquired, th.vcpu, w.tid, lock);
  th.frame.lock_wait = waited;
  step(w.tid, std::exchange(th.act.then, Step::kNone));
}

void GuestKernel::lock_release(Tid t, std::uint32_t lock) {
  SpinLock& l = locks_[lock];
  assert(l.owner == t);
  (void)t;
  l.owner = kNoTid;
  // Grant to the longest-waiting spinner that is actually executing its
  // spin loop (i.e. whose VCPU is online). Offline spinners cannot observe
  // the release — they contend again when they come back online.
  std::size_t best = l.waiters.size();
  for (std::size_t i = 0; i < l.waiters.size(); ++i) {
    const SpinWaiter& w = l.waiters[i];
    if (!vcpus_[threads_[w.tid]->vcpu].online) continue;
    if (best == l.waiters.size() || w.since < l.waiters[best].since) best = i;
  }
  if (best < l.waiters.size()) grant_to_waiter(lock, best);
}

// --- futex / sleep-wake -----------------------------------------------------------

void GuestKernel::block_current(Tid t, Step on_wake) {
  Thread& th = *threads_[t];
  assert(th.act.kind == ActKind::kNone);
  VcpuCtx& c = vcpus_[th.vcpu];
  assert(c.current == t && !c.in_irq);
  th.state = TState::kBlocked;
  th.wake = on_wake;
  c.current = kNoTid;
  if (c.quantum_ev.valid()) {
    sim_.cancel(c.quantum_ev);
    c.quantum_ev = {};
  }
  if (c.online) schedule_vcpu(th.vcpu);
}

void GuestKernel::make_ready(Tid t) {
  Thread& th = *threads_[t];
  assert(th.state == TState::kBlocked);
  th.state = TState::kReady;
  VcpuCtx& c = vcpus_[th.vcpu];
  c.runq.push_back(t);
  if (c.idle_ev.valid()) {
    sim_.cancel(c.idle_ev);
    c.idle_ev = {};
  }
  if (c.halted) {
    c.halted = false;
    hv_.vcpu_kick(vm_id_, th.vcpu);
    return;
  }
  if (c.online) {
    if (c.current == kNoTid && !c.in_irq) {
      schedule_vcpu(th.vcpu);
    } else if (!c.quantum_ev.valid() && c.current != kNoTid) {
      arm_quantum(th.vcpu);
    }
  }
}

// futex_wait: syscall entry, bucket lock, enqueue hold, then the futex
// value re-check (kFutexWaitCheck) and the sleep behind the own runqueue.
void GuestKernel::futex_wait(Tid t, std::uint32_t fq, Step on_wake) {
  ++stats_.futex_waits;
  Frame& f = threads_[t]->frame;
  f.fq = fq;
  f.resume = on_wake;
  burn(t, cfg_.syscall_entry, false, Step::kFutexWaitLock);
}

void GuestKernel::futex_wait_check(Tid t) {
  const Frame& f = threads_[t]->frame;
  FutexQ& q = futexes_[f.fq];
  const bool still_needed = f.resume == Step::kMutexRetry
                                ? mutexes_[f.obj].locked
                                : barriers_[f.obj].generation == f.gen;
  if (!still_needed) {
    // The condition changed while we were entering the kernel (futex value
    // re-check): do not sleep.
    lock_release(t, q.bucket_lock);
    burn(t, Cycles{200}, false, f.resume);
    return;
  }
  q.sleepers.push_back(t);
  lock_release(t, q.bucket_lock);
  sleep_on_rq(t, f.resume);
}

// Descheduling takes the thread's own runqueue lock (schedule()): this lock
// is also taken by remote wakers, so a holder preempted here stalls
// wake-ups for the whole VCPU.
void GuestKernel::sleep_on_rq(Tid t, Step on_wake) {
  threads_[t]->frame.resume = on_wake;
  lock_acquire(t, own_rq(t), Step::kSleepRqHold);
}

// futex_wake: syscall entry, bucket lock, a hold that grows with the number
// woken, then the wake chain and the next op.
void GuestKernel::futex_wake(Tid t, std::uint32_t fq, std::uint32_t n) {
  ++stats_.futex_wakes;
  Frame& f = threads_[t]->frame;
  f.fq = fq;
  f.wake_n = n;
  burn(t, cfg_.syscall_entry, false, Step::kFutexWakeLock);
}

// Each wake takes the woken thread's runqueue lock for rq_wake_hold.
void GuestKernel::wake_chain(Tid waker) {
  const Thread& th = *threads_[waker];
  if (th.frame.wake_i == th.woken.size()) {
    next_op(waker);
    return;
  }
  lock_acquire(waker, own_rq(th.woken[th.frame.wake_i]), Step::kWakeHold);
}

// --- guest scheduling -------------------------------------------------------------

void GuestKernel::schedule_vcpu(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  assert(c.online);
  if (c.current != kNoTid || c.in_irq) return;
  if (c.runq.empty()) {
    idle_check(v);
    return;
  }
  const Tid t = c.runq.front();
  c.runq.pop_front();
  Thread& th = *threads_[t];
  assert(th.state == TState::kReady);
  th.state = TState::kCurrent;
  c.current = t;
  ++stats_.context_switches;
  arm_quantum(v);
  if (th.act.kind != ActKind::kNone) {
    activate(t);
    return;
  }
  if (th.wake != Step::kNone) {
    step(t, std::exchange(th.wake, Step::kNone));
    return;
  }
  next_op(t);
}

void GuestKernel::idle_check(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.idle_ev.valid()) return;
  c.idle_ev = sim_.after(cfg_.idle_grace, [this, v] {
    VcpuCtx& cc = vcpus_[v];
    cc.idle_ev = {};
    if (cc.online && !cc.in_irq && cc.current == kNoTid && cc.runq.empty() &&
        !cc.halted) {
      cc.halted = true;
      note_trace(sim::TraceKind::kGuestHalt, v);
      hv_.vcpu_block(vm_id_, v);
    }
  });
}

void GuestKernel::arm_quantum(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.quantum_ev.valid()) {
    sim_.cancel(c.quantum_ev);
    c.quantum_ev = {};
  }
  if (c.runq.empty()) return;  // sole thread: no need to round-robin
  c.quantum_ev = sim_.after(cfg_.rr_quantum, [this, v] {
    vcpus_[v].quantum_ev = {};
    preempt_quantum(v);
  });
}

void GuestKernel::preempt_quantum(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online || c.current == kNoTid) return;
  Thread& th = *threads_[c.current];
  const bool in_kernel =
      c.in_irq || (th.act.kind == ActKind::kSpin) ||
      (th.act.kind == ActKind::kBurn && th.act.kernel);
  if (in_kernel) {
    c.need_resched = true;
    return;
  }
  const Tid t = c.current;
  deactivate(t);
  th.state = TState::kReady;
  c.runq.push_back(t);
  c.current = kNoTid;
  schedule_vcpu(v);
}

void GuestKernel::arm_tick(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.tick_ev.valid()) {
    sim_.cancel(c.tick_ev);
    c.tick_ev = {};
  }
  if (c.tick_due < sim_.now()) c.tick_due = sim_.now();
  c.tick_ev = sim_.at(c.tick_due, [this, v] {
    vcpus_[v].tick_ev = {};
    run_tick(v);
  });
}

void GuestKernel::run_tick(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online) return;
  c.tick_due = sim_.now() + cfg_.tick_period;
  arm_tick(v);
  ++c.ticks;
  ++stats_.ticks;
  if (c.in_irq) return;  // coalesce: a tick is already being handled
  const Tid cur = c.current;
  const bool in_kernel =
      cur != kNoTid &&
      ((threads_[cur]->act.kind == ActKind::kSpin) ||
       (threads_[cur]->act.kind == ActKind::kBurn && threads_[cur]->act.kernel));
  if (in_kernel) {
    // Interrupts are masked inside kernel critical sections; deliver when
    // the section ends.
    c.tick_pending = true;
    return;
  }
  c.tick_pending = false;
  enter_tick_irq(v);
}

// Tick handler: bookkeeping, then the timer lock (xtime_lock — a real
// kernel spinlock shared by every VCPU of the VM, so a preempted tick
// handler strands all of them), then every Nth tick a load-balance pass
// that takes a *remote* runqueue lock (Linux 2.6 rebalance_tick).
void GuestKernel::enter_tick_irq(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (c.current != kNoTid) deactivate(c.current);
  c.in_irq = true;
  burn(c.irq_tid, cfg_.tick_overhead, true, Step::kTickLock);
}

void GuestKernel::tick_release(Tid irq) {
  lock_release(irq, timer_lock_);
  const std::uint32_t v = threads_[irq]->vcpu;
  const VcpuCtx& c = vcpus_[v];
  const bool balance = cfg_.n_vcpus > 1 && cfg_.balance_every_ticks != 0 &&
                       c.ticks % cfg_.balance_every_ticks == 0;
  if (!balance) {
    finish_tick(v);
    return;
  }
  const std::uint32_t victim = static_cast<std::uint32_t>(
      (v + 1 + c.ticks / cfg_.balance_every_ticks) % cfg_.n_vcpus);
  const std::uint32_t target = victim == v ? (v + 1) % cfg_.n_vcpus : victim;
  Frame& f = threads_[irq]->frame;
  f.remote_rq = rq_locks_[target];
  lock_acquire(irq, f.remote_rq, Step::kTickBalanceHold);
}

void GuestKernel::finish_tick(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  c.in_irq = false;
  if (c.current != kNoTid) {
    activate(c.current);
  } else if (c.online) {
    schedule_vcpu(v);
  }
  maybe_deliver_pending(v);
}

void GuestKernel::tick_wake(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  c.tick_wake_ev = {};
  if (c.online) return;
  // Pre-tickless guests wake even idle VCPUs for the timer interrupt; the
  // kick only has an effect if the VCPU was halted (a capped-out VCPU stays
  // parked — the VMM enforces shares regardless of guest timers).
  hv_.vcpu_kick(vm_id_, v);
}

void GuestKernel::maybe_deliver_pending(std::uint32_t v) {
  VcpuCtx& c = vcpus_[v];
  if (!c.online || c.in_irq) return;
  const Tid cur = c.current;
  const bool in_kernel =
      cur != kNoTid && threads_[cur]->act.kind != ActKind::kNone &&
      ((threads_[cur]->act.kind == ActKind::kSpin) || threads_[cur]->act.kernel);
  if (in_kernel) return;
  if (c.tick_pending) {
    c.tick_pending = false;
    enter_tick_irq(v);
    return;
  }
  if (c.need_resched) {
    c.need_resched = false;
    preempt_quantum(v);
  }
}

// --- VMM callbacks -------------------------------------------------------------------

void GuestKernel::vcpu_online(std::uint32_t v) {
  if (v >= vcpus_.size()) {
    // A VCPU hot-added past our configured width (resize_vm growth): this
    // kernel has no runnable work for it, so park it (deferred — the VMM is
    // mid-dispatch when this callback fires).
    sim_.after(Cycles{1'000}, [this, v] { hv_.vcpu_block(vm_id_, v); });
    return;
  }
  VcpuCtx& c = vcpus_[v];
  assert(!c.online);
  c.online = true;
  c.halted = false;
  if (c.tick_wake_ev.valid()) {
    sim_.cancel(c.tick_wake_ev);
    c.tick_wake_ev = {};
  }
  if (c.tick_due.v == 0) c.tick_due = sim_.now() + cfg_.tick_period;
  arm_tick(v);
  if (c.in_irq) {
    activate(c.irq_tid);
    return;
  }
  if (c.current != kNoTid) {
    activate(c.current);
    if (!c.quantum_ev.valid()) arm_quantum(v);
    return;
  }
  schedule_vcpu(v);
}

void GuestKernel::vcpu_offline(std::uint32_t v) {
  if (v >= vcpus_.size()) return;  // hot-added VCPU we never tracked
  VcpuCtx& c = vcpus_[v];
  assert(c.online);
  c.online = false;
  if (c.tick_ev.valid()) {
    sim_.cancel(c.tick_ev);
    c.tick_ev = {};
  }
  // Schedule the timer-interrupt wake-up for the next tick deadline.
  if (!c.tick_wake_ev.valid()) {
    const Cycles due = c.tick_due < sim_.now() ? sim_.now() : c.tick_due;
    c.tick_wake_ev = sim_.at(due, [this, v] { tick_wake(v); });
  }
  if (c.quantum_ev.valid()) {
    sim_.cancel(c.quantum_ev);
    c.quantum_ev = {};
  }
  if (c.idle_ev.valid()) {
    sim_.cancel(c.idle_ev);
    c.idle_ev = {};
  }
  if (c.in_irq) {
    deactivate(c.irq_tid);
  } else if (c.current != kNoTid) {
    deactivate(c.current);
  }
}

// --- operations ------------------------------------------------------------------------

void GuestKernel::next_op(Tid t) {
  Thread& th = *threads_[t];
  if (th.state != TState::kCurrent) return;  // defensive
  exec_op(t, th.prog->next());
}

void GuestKernel::exec_op(Tid t, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kCompute:
      burn(t, op.len, false, Step::kNextOp);
      return;
    case Op::Kind::kCritical:
      op_critical(t, op.obj, op.len);
      return;
    case Op::Kind::kBarrier:
      op_barrier(t, op.obj);
      return;
    case Op::Kind::kSemWait:
      op_sem_wait(t, op.obj);
      return;
    case Op::Kind::kSemPost:
      op_sem_post(t, op.obj);
      return;
    case Op::Kind::kSleep:
      op_sleep(t, op.len);
      return;
    case Op::Kind::kDone:
      retire(t);
      return;
  }
}

void GuestKernel::op_sleep(Tid t, Cycles len) {
  // nanosleep-style timer wait: enter the kernel, block, and let the timer
  // wake us after `len` of wall time (kSleepTimer).
  threads_[t]->frame.len = len;
  burn(t, cfg_.syscall_entry, false, Step::kSleepTimer);
}

void GuestKernel::op_critical(Tid t, std::uint32_t mtx, Cycles hold) {
  // User-space fast path: one atomic attempt, then the futex slow path.
  Frame& f = threads_[t]->frame;
  f.obj = mtx;
  f.len = hold;
  burn(t, Cycles{120}, false, Step::kMutexRetry);
}

// The atomic attempt: on success hold the mutex for the frame's `len`, then
// unlock (kMutexUnlock); contended, sleep in the kernel and retry on wake
// (the futex loop).
void GuestKernel::mutex_retry(Tid t) {
  const Frame& f = threads_[t]->frame;
  Mutex& m = mutexes_[f.obj];
  if (!m.locked) {
    m.locked = true;
    burn(t, f.len, false, Step::kMutexUnlock);
    return;
  }
  futex_wait(t, m.fq, Step::kMutexRetry);
}

void GuestKernel::op_barrier(Tid t, std::uint32_t bar) {
  ++stats_.barrier_arrivals;
  threads_[t]->frame.obj = bar;
  burn(t, Cycles{150}, false, Step::kBarrierArrive);
}

void GuestKernel::barrier_arrive(Tid t) {
  Frame& f = threads_[t]->frame;
  Barrier& b = barriers_[f.obj];
  if (++b.arrived == b.parties) {
    b.arrived = 0;
    ++b.generation;
    barrier_release(t, b);
    return;
  }
  f.gen = b.generation;
  f.spun = Cycles{0};
  b.spinners.push_back(t);
  barrier_spin_loop(t);
}

// Spin-then-block wait with sched_yield cadence: the waiter spins in user
// space for spin_yield_period, enters the kernel to yield (runqueue lock),
// re-checks the release flag, and repeats until the spin budget is gone --
// then it sleeps on the barrier futex. A waiter whose VCPU is preempted
// inside a yield holds the runqueue lock across the offline span (LHP).
void GuestKernel::barrier_spin_loop(Tid t) {
  const Frame& f = threads_[t]->frame;
  Barrier& b = barriers_[f.obj];
  const auto drop_record = [&b, t] {
    auto it = std::find(b.spinners.begin(), b.spinners.end(), t);
    if (it != b.spinners.end()) b.spinners.erase(it);
  };
  if (b.generation != f.gen) {
    // Released while we were inside the kernel part of the loop; the
    // releaser could not repurpose our spin burn then, so we exit here.
    drop_record();
    burn(t, Cycles{150}, false, Step::kNextOp);
    return;
  }
  if (!b.spin_only && f.spun >= cfg_.user_spin_limit) {
    drop_record();
    ++stats_.barrier_kernel_sleeps;
    futex_wait(t, b.fq, Step::kNextOp);
    return;
  }
  burn(t, cfg_.spin_yield_period, false, Step::kSpinChunk);
}

// End of a user spin chunk: released meanwhile, or sched_yield — kernel
// entry + own runqueue lock, and (with an empty local runqueue) an
// idle_balance probe of a remote runqueue lock every Nth yield.
void GuestKernel::spin_yield(Tid t) {
  Frame& f = threads_[t]->frame;
  if (barriers_[f.obj].generation != f.gen) {
    barrier_spin_loop(t);  // takes the released path
    return;
  }
  const std::uint32_t self_v = threads_[t]->vcpu;
  const std::uint64_t yield_no = f.spun.v / cfg_.spin_yield_period.v;
  const bool probe_remote = cfg_.n_vcpus > 1 &&
                            cfg_.yield_balance_every != 0 &&
                            yield_no % cfg_.yield_balance_every == 0;
  f.remote_rq = rq_locks_[self_v];  // no probe: the own lock
  if (probe_remote) {
    const std::uint32_t target = static_cast<std::uint32_t>(
        (self_v + 1 + yield_no / cfg_.yield_balance_every) % cfg_.n_vcpus);
    f.remote_rq = rq_locks_[target == self_v ? (self_v + 1) % cfg_.n_vcpus
                                             : target];
  }
  hv_.vcpu_yield_hint(vm_id_, self_v);
  burn(t, cfg_.syscall_entry, false, Step::kYieldLock);
}

void GuestKernel::yield_cpu(Tid t, Step resume) {
  Thread& th = *threads_[t];
  VcpuCtx& c = vcpus_[th.vcpu];
  assert(c.current == t && th.act.kind == ActKind::kNone);
  if (c.runq.empty()) {
    step(t, resume);  // nothing else to run: yield is a no-op
    return;
  }
  th.state = TState::kReady;
  th.wake = resume;
  c.runq.push_back(t);
  c.current = kNoTid;
  if (c.quantum_ev.valid()) {
    sim_.cancel(c.quantum_ev);
    c.quantum_ev = {};
  }
  if (c.online) schedule_vcpu(th.vcpu);
}

void GuestKernel::barrier_release(Tid t, Barrier& b) {
  // Wake user-level spinners: those inside their user-space spin chunk
  // observe the flag immediately (their burn is repurposed); those inside
  // the kernel part of the yield notice at the next loop check, so they
  // keep their records until their own generation check removes them (they
  // may also time out into futex_wait, whose re-check then lets them
  // through).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < b.spinners.size(); ++i) {
    const Tid s = b.spinners[i];
    const Activity& a = threads_[s]->act;
    if (a.kind == ActKind::kBurn && !a.kernel) {
      repurpose_burn(s, Cycles{120}, Step::kNextOp);
    } else {
      b.spinners[kept++] = s;
    }
  }
  b.spinners.resize(kept);
  if (!futexes_[b.fq].sleepers.empty()) {
    futex_wake(t, b.fq, static_cast<std::uint32_t>(-1));
  } else {
    burn(t, Cycles{100}, false, Step::kNextOp);
  }
}

void GuestKernel::op_sem_wait(Tid t, std::uint32_t s) {
  threads_[t]->frame.obj = s;
  burn(t, cfg_.syscall_entry, false, Step::kSemWaitLock);
}

void GuestKernel::sem_wait_check(Tid t) {
  const Frame& f = threads_[t]->frame;
  Semaphore& sem = semaphores_[f.obj];
  FutexQ& q = futexes_[sem.fq];
  // The reported semaphore waiting time is the CPU consumed by the down()
  // path itself: a blocked sleeper releases its VCPU so the sleep span is
  // not CPU waiting, and a contended *spinlock* stall inside the path is
  // attributed to the spinlock histogram, not to the semaphore (this is why
  // the paper finds blocking primitives virtualization-tolerant; see
  // DESIGN.md).
  Cycles path = cfg_.syscall_entry + Cycles{300};
  path += f.lock_wait < Cycles{2'000} ? f.lock_wait : Cycles{2'000};
  stats_.sem_waits.add(path);
  if (sem.count > 0) {
    --sem.count;
    lock_release(t, q.bucket_lock);
    burn(t, Cycles{150}, false, Step::kNextOp);
    return;
  }
  q.sleepers.push_back(t);
  lock_release(t, q.bucket_lock);
  sleep_on_rq(t, Step::kNextOp);
}

void GuestKernel::op_sem_post(Tid t, std::uint32_t s) {
  threads_[t]->frame.obj = s;
  burn(t, cfg_.syscall_entry, false, Step::kSemPostLock);
}

void GuestKernel::sem_post_check(Tid t) {
  Thread& th = *threads_[t];
  Semaphore& sem = semaphores_[th.frame.obj];
  FutexQ& q = futexes_[sem.fq];
  if (!q.sleepers.empty()) {
    // Direct handoff: the count stays zero and the sleeper proceeds.
    th.woken.assign(1, q.sleepers.front());
    th.frame.wake_i = 0;
    q.sleepers.erase(q.sleepers.begin());
    lock_release(t, q.bucket_lock);
    wake_chain(t);
    return;
  }
  ++sem.count;
  lock_release(t, q.bucket_lock);
  next_op(t);
}

void GuestKernel::retire(Tid t) {
  Thread& th = *threads_[t];
  assert(th.state == TState::kCurrent);
  th.state = TState::kDone;
  th.finish_time = sim_.now();
  last_finish_ = sim_.now();
  ++done_count_;
  VcpuCtx& c = vcpus_[th.vcpu];
  c.current = kNoTid;
  if (c.quantum_ev.valid()) {
    sim_.cancel(c.quantum_ev);
    c.quantum_ev = {};
  }
  note_trace(sim::TraceKind::kThreadDone, th.vcpu, t);
  if (all_threads_done() && all_done_) {
    Cont cb = std::move(all_done_);
    all_done_ = nullptr;
    cb();
  }
  if (c.online) schedule_vcpu(th.vcpu);
}

}  // namespace asman::guest
