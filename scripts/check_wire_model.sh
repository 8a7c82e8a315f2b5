#!/bin/sh
# One wire model: every simulated RPC leg is charged through rpc::Transport
# and every framing size is defined once, in src/rpc (rpc/envelope.hpp).
# Fails when
#   - `transfer_us(` appears under src/ outside src/rpc, src/sim and the two
#     models that are not RPCs (MPI collectives, Spark shuffle);
#   - an envelope/framing/request/reply size constant is defined outside
#     src/rpc.
# Run from the repository root: sh scripts/check_wire_model.sh
status=0

hand_legs=$(grep -rn 'transfer_us(' src --include='*.cpp' --include='*.hpp' |
  grep -v -e '^src/rpc/' -e '^src/sim/' \
    -e '^src/mpiio/communicator\.cpp:' -e '^src/spark/engine\.cpp:')
if [ -n "$hand_legs" ]; then
  echo "$hand_legs"
  echo "error: hand-written wire cost; charge the leg through rpc::Transport (leg/hop)"
  status=1
fi

framing=$(grep -rnE \
  'constexpr[^;=]*\<k[A-Za-z0-9_]*(Envelope|Framing|Request|Reply|Req|Resp)(Bytes)?[[:space:]]*=' \
  src --include='*.cpp' --include='*.hpp' 2>/dev/null | grep -v '^src/rpc/')
if [ -n "$framing" ]; then
  echo "$framing"
  echo "error: framing size defined outside src/rpc; add it to rpc/envelope.hpp"
  status=1
fi

[ "$status" -eq 0 ] && echo "wire model: one transport, framing sizes in src/rpc"
exit "$status"
