//! The worker pool's bookkeeping as a pure transition function.
//!
//! [`Pool`] knows which shard is in which [`State`], which worker slot
//! holds which in-flight `(shard, attempt)`, when a failed shard may be
//! retried and what a poisoned shard drains — and nothing about
//! processes, pipes or threads. The supervisor feeds it [`Event`]s with
//! the clock as a parameter and carries out the [`Action`]s it returns,
//! so every scheduling decision of a sharded run can be tested on
//! synthetic interleavings without spawning anything.
//!
//! A worker is named by its slot (`0..max_workers`, the key of the
//! heartbeat monitor) and a *serial* that is never reused: events carry
//! both, and an event whose serial is not the slot's current one comes
//! from a process that was already killed and changes nothing.
//!
//! Rounds are pipelined along chains: behind the round a worker is
//! running, the pool may *queue* one successor of that round's shard whose
//! every other predecessor is completed, so its frames wait in the
//! worker's stdin and it starts the moment the round ahead ends. A queued
//! round is not yet an attempt: it becomes one when the `Done` of the
//! round ahead starts it, and a worker lost before that hands it back
//! without spending an attempt or a respawn.

use std::time::{Duration, Instant};

use crate::core::forward_closure;
use crate::sched::RetryPolicy;
use crate::tdg::{TaskId, Tdg};

/// Where a shard stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    /// Not all shard-graph predecessors have completed.
    Waiting,
    /// Dispatchable (a pending retry may gate it behind a backoff).
    Ready,
    /// A worker is serving it.
    Running,
    /// Queued behind the round a worker is running, which it succeeds.
    Queued,
    /// Its delta is applied to the master state.
    Completed,
    /// Retries exhausted.
    Poisoned,
    /// Drained: a poisoned shard sits upstream.
    Unfinished,
}

/// What happened, as far as the bookkeeping cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The worker finished its round and the delta is in the master
    /// state.
    Done { slot: usize, serial: u64 },
    /// The worker died, stalled or broke the protocol: its process must
    /// go, and the round it was serving (if any) failed.
    Lost { slot: usize, serial: u64 },
    /// Time passed: hand every dispatchable shard to a worker.
    Tick,
}

/// What the supervisor must do in response, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Kill and reap the process in `slot`.
    Kill { slot: usize },
    /// Launch a process into the empty `slot` under `serial`.
    Spawn { slot: usize, serial: u64 },
    /// Send the worker in `slot` this round: it runs now if the worker is
    /// idle, else it is queued behind the worker's running round.
    Assign {
        slot: usize,
        shard: u32,
        attempt: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Worker {
    serial: u64,
    /// The round it is running.
    job: Option<(u32, u32)>,
    /// The shard queued behind `job`, never without one.
    queued: Option<u32>,
}

pub(crate) struct Pool<'a> {
    /// The shard graph (ids are a topological order).
    graph: &'a Tdg,
    retry: RetryPolicy,
    state: Vec<State>,
    deps_left: Vec<u32>,
    /// Worker attempts started per shard.
    attempts: Vec<u32>,
    retry_at: Vec<Option<Instant>>,
    workers: Vec<Option<Worker>>,
    /// Serials handed out so far, i.e. processes launched.
    next_serial: u64,
    respawns: u64,
}

impl<'a> Pool<'a> {
    /// A pool over `graph`'s shards with room for `max_workers`
    /// processes. Slot 0 already holds the worker with serial 0, which
    /// the supervisor launches ahead of its own planning; `completed`
    /// marks shards whose values a checkpoint restored.
    pub(crate) fn new(
        graph: &'a Tdg,
        completed: &[bool],
        max_workers: usize,
        retry: RetryPolicy,
    ) -> Self {
        let k = graph.num_tasks();
        let mut deps_left: Vec<u32> = (0..k as u32).map(|s| graph.in_degree(TaskId(s))).collect();
        for s in (0..k as u32).filter(|&s| completed[s as usize]) {
            for &succ in graph.successors(TaskId(s)) {
                deps_left[succ as usize] -= 1;
            }
        }
        let state = (0..k)
            .map(|s| match (completed[s], deps_left[s]) {
                (true, _) => State::Completed,
                (false, 0) => State::Ready,
                (false, _) => State::Waiting,
            })
            .collect();
        let mut workers = vec![None; max_workers.max(1)];
        workers[0] = Some(Worker {
            serial: 0,
            job: None,
            queued: None,
        });
        Pool {
            graph,
            retry,
            state,
            deps_left,
            attempts: vec![0; k],
            retry_at: vec![None; k],
            workers,
            next_serial: 1,
            respawns: 0,
        }
    }

    pub(crate) fn states(&self) -> &[State] {
        &self.state
    }

    pub(crate) fn attempts(&self) -> &[u32] {
        &self.attempts
    }

    /// Shard attempts after the first.
    pub(crate) fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Worker processes launched, the early one included.
    pub(crate) fn workers_spawned(&self) -> u64 {
        self.next_serial
    }

    /// The serial of the live worker in `slot`.
    pub(crate) fn serial(&self, slot: usize) -> Option<u64> {
        self.workers.get(slot)?.map(|w| w.serial)
    }

    /// The `(shard, attempt)` in flight on `slot`.
    pub(crate) fn job(&self, slot: usize) -> Option<(u32, u32)> {
        self.workers.get(slot)?.and_then(|w| w.job)
    }

    /// The shard queued behind the round in flight on `slot`.
    #[cfg(test)]
    pub(crate) fn queued(&self, slot: usize) -> Option<u32> {
        self.workers.get(slot)?.and_then(|w| w.queued)
    }

    /// Every shard is completed, poisoned or drained — and therefore no
    /// round is in flight or queued.
    pub(crate) fn settled(&self) -> bool {
        self.state
            .iter()
            .all(|s| matches!(s, State::Completed | State::Poisoned | State::Unfinished))
    }

    /// Time until the earliest pending retry may be dispatched.
    pub(crate) fn next_retry(&self, now: Instant) -> Option<Duration> {
        self.retry_at
            .iter()
            .flatten()
            .map(|at| at.saturating_duration_since(now))
            .min()
    }

    /// The live worker in `slot`, if `serial` is still its serial.
    fn current(&self, slot: usize, serial: u64) -> Option<Worker> {
        self.workers.get(slot)?.filter(|w| w.serial == serial)
    }

    /// Advance the bookkeeping by one event observed at `now`. An event
    /// whose serial is not its slot's current one is a straggler from a
    /// process that was already killed, and changes nothing.
    pub(crate) fn on(&mut self, event: Event, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            Event::Done { slot, serial } => {
                let Some(w) = self.current(slot, serial) else {
                    return actions;
                };
                if let Some((shard, _)) = w.job {
                    self.complete(shard);
                }
                // The queued round, if any, starts now.
                let job = w.queued.map(|shard| self.start(shard));
                self.workers[slot] = Some(Worker {
                    job,
                    queued: None,
                    ..w
                });
            }
            Event::Lost { slot, serial } => {
                let Some(w) = self.current(slot, serial) else {
                    return actions;
                };
                self.workers[slot] = None;
                actions.push(Action::Kill { slot });
                // The queued round never started: it goes back as it was,
                // and draining below may still take it.
                if let Some(shard) = w.queued {
                    self.state[shard as usize] = match self.deps_left[shard as usize] {
                        0 => State::Ready,
                        _ => State::Waiting,
                    };
                }
                if let Some((shard, attempt)) = w.job {
                    self.fail(shard, attempt, now);
                }
            }
            Event::Tick => self.dispatch(now, &mut actions),
        }
        actions
    }

    fn complete(&mut self, shard: u32) {
        self.state[shard as usize] = State::Completed;
        for &succ in self.graph.successors(TaskId(shard)) {
            let d = &mut self.deps_left[succ as usize];
            *d -= 1;
            if *d == 0 && self.state[succ as usize] == State::Waiting {
                self.state[succ as usize] = State::Ready;
            }
        }
    }

    /// Schedule a retry (with backoff) or poison the shard and drain its
    /// forward closure.
    fn fail(&mut self, shard: u32, attempt: u32, now: Instant) {
        if self.attempts[shard as usize] <= self.retry.max_retries {
            self.state[shard as usize] = State::Ready;
            self.retry_at[shard as usize] = Some(now + self.retry.backoff(attempt));
            return;
        }
        self.state[shard as usize] = State::Poisoned;
        // Only waiting descendants drain. After a resume under another
        // shard count a descendant may already be completed, ready,
        // running or queued: every direct predecessor of such a shard is
        // complete or running, so what it reads is final whatever happens
        // upstream.
        for t in forward_closure(self.graph, &[shard]) {
            if self.state[t as usize] == State::Waiting {
                self.state[t as usize] = State::Unfinished;
            }
        }
    }

    /// Hand every dispatchable shard, in shard-id (topological) order,
    /// to an idle worker — or to a new one while a slot is empty. Then
    /// queue behind each running round without a queue the lowest
    /// waiting successor whose only unfinished predecessor is that round.
    fn dispatch(&mut self, now: Instant, actions: &mut Vec<Action>) {
        for shard in 0..self.state.len() as u32 {
            let s = shard as usize;
            if self.state[s] != State::Ready || self.retry_at[s].is_some_and(|at| now < at) {
                continue;
            }
            let idle = self.workers.iter().enumerate().find_map(|(slot, w)| {
                let w = w.as_ref()?;
                w.job.is_none().then_some((slot, w.serial))
            });
            let (slot, serial) = match idle {
                Some(found) => found,
                None => {
                    let Some(slot) = self.workers.iter().position(Option::is_none) else {
                        break;
                    };
                    let serial = self.next_serial;
                    self.next_serial += 1;
                    actions.push(Action::Spawn { slot, serial });
                    (slot, serial)
                }
            };
            let job = self.start(shard);
            self.workers[slot] = Some(Worker {
                serial,
                job: Some(job),
                queued: None,
            });
            actions.push(Action::Assign {
                slot,
                shard,
                attempt: job.1,
            });
        }
        for slot in 0..self.workers.len() {
            let Some(
                w @ Worker {
                    job: Some((running, _)),
                    queued: None,
                    ..
                },
            ) = self.workers[slot]
            else {
                continue;
            };
            let next = self
                .graph
                .successors(TaskId(running))
                .iter()
                .copied()
                .find(|&q| {
                    self.state[q as usize] == State::Waiting && self.deps_left[q as usize] == 1
                });
            if let Some(shard) = next {
                self.state[shard as usize] = State::Queued;
                self.workers[slot] = Some(Worker {
                    queued: Some(shard),
                    ..w
                });
                actions.push(Action::Assign {
                    slot,
                    shard,
                    attempt: self.attempts[shard as usize],
                });
            }
        }
    }

    /// Start `shard`: the round becomes an attempt. Returns the
    /// `(shard, attempt)` its worker now runs.
    fn start(&mut self, shard: u32) -> (u32, u32) {
        let s = shard as usize;
        debug_assert_eq!(
            self.deps_left[s], 0,
            "shard {shard} starts over a predecessor"
        );
        let attempt = self.attempts[s];
        self.attempts[s] += 1;
        if attempt > 0 {
            self.respawns += 1;
        }
        self.retry_at[s] = None;
        self.state[s] = State::Running;
        (shard, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdg::TdgBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A DAG over `k` shards whose edge `u → v` (`u < v`) exists when the
    /// matching bit of `mask` is set.
    fn shard_graph(k: usize, mask: u64) -> Tdg {
        let mut b = TdgBuilder::new(k);
        let mut bit = 0;
        for u in 0..k {
            for v in u + 1..k {
                if mask >> bit & 1 == 1 {
                    b.add_edge(TaskId(u as u32), TaskId(v as u32));
                }
                bit += 1;
            }
        }
        b.build().expect("edges rise, so the graph is acyclic")
    }

    fn retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(8),
        }
    }

    /// The supervisor's side of the contract, modelled: which processes
    /// are alive, and the invariants every transition must keep.
    struct Model<'a> {
        pool: Pool<'a>,
        graph: &'a Tdg,
        max_workers: usize,
        max_retries: u32,
        /// slot → serial of the live process.
        live: BTreeMap<usize, u64>,
        /// `(slot, serial)` of every process killed so far.
        dead: Vec<(usize, u64)>,
    }

    impl Model<'_> {
        fn step(&mut self, event: Event, now: Instant) {
            let before = self.pool.states().to_vec();
            let (attempts, respawns) = (self.pool.attempts().to_vec(), self.pool.respawns());
            let jobs: Vec<_> = (0..self.max_workers).map(|w| self.pool.job(w)).collect();
            let voided = match event {
                Event::Lost { slot, serial } if self.live.get(&slot) == Some(&serial) => {
                    self.pool.queued(slot)
                }
                _ => None,
            };
            for action in self.pool.on(event, now) {
                match action {
                    Action::Kill { slot } => {
                        let serial = self.live.remove(&slot).expect("kills hit live workers");
                        self.dead.push((slot, serial));
                    }
                    Action::Spawn { slot, serial } => {
                        assert!(
                            self.dead.iter().all(|&(_, s)| s != serial) && serial != 0,
                            "serials are never reused"
                        );
                        assert!(
                            self.live.insert(slot, serial).is_none(),
                            "spawns fill empty slots"
                        );
                    }
                    Action::Assign {
                        slot,
                        shard,
                        attempt,
                    } => {
                        assert!(self.live.contains_key(&slot), "rounds go to live workers");
                        let queued = self.pool.queued(slot) == Some(shard);
                        assert_eq!(
                            attempt + u32::from(!queued),
                            self.pool.attempts()[shard as usize],
                            "only a started round is an attempt"
                        );
                        if queued {
                            // The round ahead is its one unfinished
                            // predecessor.
                            assert_eq!(before[shard as usize], State::Waiting);
                            let (ahead, _) = self.pool.job(slot).expect("queued behind a round");
                            let preds = self.graph.predecessors(TaskId(shard));
                            assert!(preds.contains(&ahead), "queued behind a non-predecessor");
                            for &p in preds.iter().filter(|&&p| p != ahead) {
                                assert_eq!(
                                    self.pool.states()[p as usize],
                                    State::Completed,
                                    "shard {shard} queued before its predecessor {p}"
                                );
                            }
                        } else {
                            assert_eq!(self.pool.job(slot), Some((shard, attempt)));
                            assert_eq!(before[shard as usize], State::Ready);
                        }
                    }
                }
            }
            for (slot, &was) in jobs.iter().enumerate() {
                let queued = self.pool.queued(slot);
                assert!(
                    queued.is_none() || self.pool.job(slot).is_some(),
                    "a queue stands behind a running round"
                );
                // A round that started (fresh or from the queue) starts
                // over completed predecessors only.
                if let Some((shard, attempt)) = self.pool.job(slot) {
                    if was != Some((shard, attempt)) {
                        for &p in self.graph.predecessors(TaskId(shard)) {
                            assert_eq!(
                                self.pool.states()[p as usize],
                                State::Completed,
                                "shard {shard} started before its predecessor {p}"
                            );
                        }
                    }
                }
            }
            if let Some(q) = voided {
                assert_eq!(
                    self.pool.attempts()[q as usize],
                    attempts[q as usize],
                    "a voided queued round spends no attempt"
                );
                assert!(matches!(
                    self.pool.states()[q as usize],
                    State::Ready | State::Waiting | State::Unfinished
                ));
            }
            if matches!(event, Event::Lost { .. }) {
                assert_eq!(self.pool.respawns(), respawns, "a loss starts nothing");
            }
            if self.pool.settled() {
                assert!(
                    (0..self.max_workers).all(|w| self.pool.queued(w).is_none()),
                    "a settled pool has no queued round"
                );
            }
            assert!(
                self.live.len() <= self.max_workers,
                "live workers are capped"
            );
            for (slot, &serial) in &self.live {
                assert_eq!(self.pool.serial(*slot), Some(serial));
            }
            let states = self.pool.states();
            for (s, (&was, &is)) in before.iter().zip(states).enumerate() {
                if was == State::Completed {
                    assert_eq!(is, State::Completed, "completed is absorbing");
                }
                let in_flight = (0..self.max_workers)
                    .filter(|&slot| self.pool.job(slot).is_some_and(|(j, _)| j as usize == s))
                    .count();
                assert_eq!(
                    in_flight,
                    usize::from(is == State::Running),
                    "a running shard is in flight on exactly one worker"
                );
                let queued = (0..self.max_workers)
                    .filter(|&slot| self.pool.queued(slot) == Some(s as u32))
                    .count();
                assert_eq!(
                    queued,
                    usize::from(is == State::Queued),
                    "a queued shard waits on exactly one worker"
                );
                assert!(self.pool.attempts()[s] <= self.max_retries + 1);
            }
        }

        fn busy(&self) -> Vec<(usize, u64)> {
            let busy = |(&slot, &serial): (&usize, &u64)| {
                self.pool.job(slot).is_some().then_some((slot, serial))
            };
            self.live.iter().filter_map(busy).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of completions, deaths/stalls, stragglers
        /// from killed processes and clock ticks keeps the pool's
        /// invariants, and every run settles into a disposition that
        /// partitions the shard set along the shard graph.
        #[test]
        fn any_interleaving_keeps_the_pool_consistent_and_settles(
            k in 1usize..7,
            mask in any::<u64>(),
            restored in any::<u8>(),
            max_workers in 1usize..4,
            max_retries in 0u32..3,
            script in proptest::collection::vec((0u8..8, any::<u8>(), 0u64..6), 0..60),
        ) {
            let graph = shard_graph(k, mask);
            let completed: Vec<bool> = (0..k).map(|s| restored >> s & 1 == 1).collect();
            let t0 = Instant::now();
            let mut now = t0;
            let mut m = Model {
                pool: Pool::new(&graph, &completed, max_workers, retry(max_retries)),
                graph: &graph,
                max_workers,
                max_retries,
                live: BTreeMap::from([(0, 0)]),
                dead: Vec::new(),
            };
            for (op, pick, millis) in script {
                now += Duration::from_millis(millis);
                let pick = pick as usize;
                let event = match op {
                    // A round completes.
                    0..=2 => match m.busy() {
                        busy if busy.is_empty() => Event::Tick,
                        busy => {
                            let (slot, serial) = busy[pick % busy.len()];
                            Event::Done { slot, serial }
                        }
                    },
                    // A live worker dies or stalls, busy or idle.
                    3 if !m.live.is_empty() => {
                        let (&slot, &serial) =
                            m.live.iter().nth(pick % m.live.len()).expect("in range");
                        Event::Lost { slot, serial }
                    }
                    // A straggler from a process that is already dead.
                    4 | 5 if !m.dead.is_empty() => {
                        let (slot, serial) = m.dead[pick % m.dead.len()];
                        if op == 4 {
                            Event::Done { slot, serial }
                        } else {
                            Event::Lost { slot, serial }
                        }
                    }
                    _ => Event::Tick,
                };
                let stale = matches!(event, Event::Done { slot, serial } | Event::Lost { slot, serial }
                    if m.live.get(&slot) != Some(&serial));
                let before = (m.pool.states().to_vec(), m.live.clone());
                m.step(event, now);
                if stale {
                    prop_assert_eq!(&before.0[..], m.pool.states(), "stale events change nothing");
                    prop_assert_eq!(&before.1, &m.live);
                }
            }
            // Fault-free from here on: the run must settle.
            for _ in 0..4 * k + 4 {
                now += Duration::from_millis(8);
                m.step(Event::Tick, now);
                for (slot, serial) in m.busy() {
                    m.step(Event::Done { slot, serial }, now);
                }
            }
            prop_assert!(m.pool.settled(), "states {:?}", m.pool.states());
            prop_assert!(m.busy().is_empty());

            let states = m.pool.states();
            let poisoned: Vec<u32> = (0..k as u32)
                .filter(|&s| states[s as usize] == State::Poisoned)
                .collect();
            let drained = forward_closure(&graph, &poisoned);
            for s in 0..k as u32 {
                match states[s as usize] {
                    State::Completed => prop_assert!(
                        completed[s as usize]
                            || graph
                                .predecessors(TaskId(s))
                                .iter()
                                .all(|&p| states[p as usize] == State::Completed),
                        "shard {s} completed over an incomplete predecessor"
                    ),
                    State::Poisoned => {
                        prop_assert_eq!(m.pool.attempts()[s as usize], max_retries + 1)
                    }
                    State::Unfinished => prop_assert!(
                        drained.contains(&s),
                        "shard {s} drained without a poisoned ancestor"
                    ),
                    other => prop_assert!(false, "shard {s} ended {other:?}"),
                }
            }
        }
    }

    /// Each shard of a chain is queued behind the one before it and
    /// starts on that one's `Done`, on the one worker there is.
    #[test]
    fn a_chain_plan_never_grows_the_pool() {
        let graph = shard_graph(4, 0b10_1001); // 0→1, 1→2, 2→3
        let mut pool = Pool::new(&graph, &[false; 4], 2, retry(3));
        let now = Instant::now();
        let assign = |shard| Action::Assign {
            slot: 0,
            shard,
            attempt: 0,
        };
        assert_eq!(pool.on(Event::Tick, now), [assign(0), assign(1)]);
        assert_eq!(pool.states()[1], State::Queued);
        assert_eq!(
            pool.attempts(),
            [1, 0, 0, 0],
            "a queued round is no attempt"
        );
        for shard in 1..4 {
            assert!(pool.on(Event::Done { slot: 0, serial: 0 }, now).is_empty());
            assert_eq!(pool.job(0), Some((shard, 0)), "the queue starts on Done");
            let next: Vec<Action> = (shard + 1..4).take(1).map(assign).collect();
            assert_eq!(pool.on(Event::Tick, now), next);
        }
        assert!(pool.on(Event::Done { slot: 0, serial: 0 }, now).is_empty());
        assert!(pool.settled());
        assert_eq!(pool.attempts(), [1, 1, 1, 1]);
        assert_eq!(pool.workers_spawned(), 1);
    }

    /// A worker lost while a round waits behind its running one: the
    /// running round fails and spends its attempt, the queued one goes
    /// back to waiting without spending one, and the retry queues it
    /// again behind itself on the new worker.
    #[test]
    fn a_loss_hands_the_queued_round_back_without_an_attempt() {
        let graph = shard_graph(3, 0b101); // 0→1, 1→2
        let mut pool = Pool::new(&graph, &[false; 3], 1, retry(2));
        let t0 = Instant::now();
        pool.on(Event::Tick, t0);
        pool.on(Event::Done { slot: 0, serial: 0 }, t0);
        pool.on(Event::Tick, t0);
        assert_eq!((pool.job(0), pool.queued(0)), (Some((1, 0)), Some(2)));
        assert_eq!(
            pool.on(Event::Lost { slot: 0, serial: 0 }, t0),
            [Action::Kill { slot: 0 }]
        );
        assert_eq!(
            pool.states(),
            [State::Completed, State::Ready, State::Waiting]
        );
        assert_eq!((pool.attempts(), pool.respawns()), (&[1, 1, 0][..], 0));
        let later = t0 + Duration::from_millis(2);
        assert_eq!(
            pool.on(Event::Tick, later),
            [
                Action::Spawn { slot: 0, serial: 1 },
                Action::Assign {
                    slot: 0,
                    shard: 1,
                    attempt: 1
                },
                Action::Assign {
                    slot: 0,
                    shard: 2,
                    attempt: 0
                },
            ]
        );
        assert_eq!(pool.respawns(), 1);
        // Lost again with both retries of shard 1 spent: the queued shard
        // drains with it, still without an attempt.
        let mut now = later;
        pool.on(Event::Lost { slot: 0, serial: 1 }, now);
        now += Duration::from_millis(8);
        pool.on(Event::Tick, now);
        pool.on(Event::Lost { slot: 0, serial: 2 }, now);
        assert_eq!(
            pool.states(),
            [State::Completed, State::Poisoned, State::Unfinished]
        );
        assert_eq!(pool.attempts(), [1, 3, 0]);
        assert!(pool.settled() && pool.queued(0).is_none());
    }

    #[test]
    fn a_death_fails_only_the_round_in_flight_and_the_retry_waits_out_its_backoff() {
        let graph = shard_graph(2, 1);
        let mut pool = Pool::new(&graph, &[false; 2], 2, retry(1));
        let t0 = Instant::now();
        pool.on(Event::Tick, t0);
        pool.on(Event::Done { slot: 0, serial: 0 }, t0);
        pool.on(Event::Tick, t0);
        assert_eq!(pool.job(0), Some((1, 0)));
        assert_eq!(
            pool.on(Event::Lost { slot: 0, serial: 0 }, t0),
            [Action::Kill { slot: 0 }]
        );
        assert_eq!(pool.states(), [State::Completed, State::Ready]);
        assert!(pool.on(Event::Tick, t0).is_empty(), "backoff not elapsed");
        assert_eq!(pool.next_retry(t0), Some(Duration::from_millis(2)));
        let later = t0 + Duration::from_millis(2);
        assert_eq!(
            pool.on(Event::Tick, later),
            [
                Action::Spawn { slot: 0, serial: 1 },
                Action::Assign {
                    slot: 0,
                    shard: 1,
                    attempt: 1
                }
            ]
        );
        // The second death exhausts the budget.
        pool.on(Event::Lost { slot: 0, serial: 1 }, later);
        assert_eq!(pool.states(), [State::Completed, State::Poisoned]);
        assert_eq!((pool.respawns(), pool.workers_spawned()), (1, 2));
    }

    #[test]
    fn independent_shards_grow_the_pool_up_to_the_cap() {
        let graph = shard_graph(3, 0);
        let mut pool = Pool::new(&graph, &[false; 3], 2, retry(0));
        let actions = pool.on(Event::Tick, Instant::now());
        assert_eq!(
            actions,
            [
                Action::Assign {
                    slot: 0,
                    shard: 0,
                    attempt: 0
                },
                Action::Spawn { slot: 1, serial: 1 },
                Action::Assign {
                    slot: 1,
                    shard: 1,
                    attempt: 0
                },
            ]
        );
        assert_eq!(pool.states()[2], State::Ready, "no third worker");
    }
}
