//! The traced run's protocol wrapper: [`Timed<P>`] forwards every handler
//! to the wrapped protocol through a detached [`Ctx<P>`] and charges the
//! handler's wall-clock time to one protocol layer.
//!
//! Only the inner handler call sits inside the timed span. Building the
//! detached context and copying its sends and outputs back is wrapper
//! overhead, which the report leaves in the engine's self time.

use std::cell::Cell;
use std::time::Instant;
use wfd_sim::{Ctx, ProcessId, Protocol};

/// The protocol layers whose handlers the traced run times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `wfd-extraction`: Figure 3's `PsiExtraction`.
    Extraction,
    /// `wfd-registers`: ABD and Figure 1's `SigmaExtraction`.
    Registers,
    /// `wfd-consensus`: (Ω, Σ) consensus and consensus via registers.
    Consensus,
    /// `wfd-quittable`: Ψ-QC.
    Quittable,
    /// `wfd-nbac`: Figures 4 and 5.
    Nbac,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Extraction,
        Layer::Registers,
        Layer::Consensus,
        Layer::Quittable,
        Layer::Nbac,
    ];
}

thread_local! {
    /// Handler nanoseconds per layer, on the thread that runs the sims.
    static HANDLER_NS: [Cell<u64>; 5] = const { [const { Cell::new(0) }; 5] };
}

/// Handler nanoseconds charged to `layer` on this thread so far.
pub fn handler_ns(layer: Layer) -> u64 {
    HANDLER_NS.with(|c| c[layer as usize].get())
}

/// A protocol whose handlers are timed and charged to a [`Layer`].
#[derive(Debug)]
pub struct Timed<P: Protocol> {
    inner: P,
    layer: Layer,
    sends: Vec<(ProcessId, P::Msg)>,
    outputs: Vec<P::Output>,
}

impl<P: Protocol> Timed<P> {
    /// Wrap `inner`, charging its handlers to `layer`.
    pub fn new(layer: Layer, inner: P) -> Self {
        Timed {
            inner,
            layer,
            sends: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn forward(&mut self, ctx: &mut Ctx<Self>, handler: impl FnOnce(&mut P, &mut Ctx<P>)) {
        let mut inner_ctx = Ctx::<P>::with_buffers(
            ctx.me(),
            ctx.n(),
            ctx.now(),
            ctx.fd().clone(),
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.outputs),
        );
        let started = Instant::now();
        handler(&mut self.inner, &mut inner_ctx);
        let ns = started.elapsed().as_nanos() as u64;
        HANDLER_NS.with(|c| {
            let slot = &c[self.layer as usize];
            slot.set(slot.get() + ns);
        });
        let (mut sends, mut outputs) = inner_ctx.into_buffers();
        for (to, msg) in sends.drain(..) {
            ctx.send(to, msg);
        }
        for out in outputs.drain(..) {
            ctx.output(out);
        }
        self.sends = sends;
        self.outputs = outputs;
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;
    type Inv = P::Inv;
    type Fd = P::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        self.forward(ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        self.forward(ctx, |p, c| p.on_message(c, from, msg));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.forward(ctx, |p, c| p.on_tick(c));
    }

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: Self::Inv) {
        self.forward(ctx, |p, c| p.on_invoke(c, inv));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfd_sim::{FailurePattern, NoDetector, RoundRobin, Sim, SimConfig};

    /// Broadcasts once, then outputs how many messages it has seen.
    #[derive(Debug)]
    struct Hello(usize);

    impl Protocol for Hello {
        type Msg = ();
        type Output = usize;
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.broadcast(());
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
            self.0 += 1;
            ctx.output(self.0);
        }
    }

    fn run<P: Protocol<Fd = ()>>(procs: Vec<P>) -> String {
        let mut sim = Sim::new(
            SimConfig::new(3).with_horizon(50),
            procs,
            FailurePattern::failure_free(3),
            NoDetector,
            RoundRobin::new(),
        );
        sim.run();
        format!("{:?}", sim.trace().events())
    }

    #[test]
    fn wrapper_keeps_the_trace_and_charges_its_layer() {
        let before = handler_ns(Layer::Nbac);
        let plain = run((0..3).map(|_| Hello(0)).collect());
        let timed = run((0..3).map(|_| Timed::new(Layer::Nbac, Hello(0))).collect());
        assert_eq!(plain, timed);
        assert!(handler_ns(Layer::Nbac) > before);
    }
}
