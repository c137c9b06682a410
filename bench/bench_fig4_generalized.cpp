// E3 (Fig. 4 / Definition 2): an instance where no single-track routing
// exists but a generalized routing (connections may change tracks) does.
#include <iostream>

#include "segroute.h"

using namespace segroute;

int main() {
  const auto ch = gen::fixtures::fig4_channel();
  const ChannelIndex idx(ch);
  const auto cs = gen::fixtures::fig4_connections();
  std::cout << "E3 / Fig. 4 — generalized routing strictly increases "
               "capacity\n\n"
            << io::render(ch) << "\n"
            << io::render(cs, ch.width()) << "\n";

  const auto std_r = alg::dp_route(idx, cs);
  const auto gen_r = alg::generalized_dp_route(idx, cs);

  io::Table t({"router", "routes?", "detail"});
  t.add_row({"single-track DP (Def. 1)", std_r.success ? "yes" : "no",
             std_r.success ? "" : std_r.note});
  t.add_row({"generalized DP (Def. 2, Sec. V)",
             gen_r.success ? "yes" : "no",
             gen_r.success ? "valid: " + std::string(validate(ch, cs,
                                                              gen_r.routing)
                                                         ? "yes"
                                                         : "NO")
                           : gen_r.note});
  std::cout << t.str() << "\n";

  if (gen_r.success) {
    std::cout << "Generalized routing:\n"
              << io::render(ch, cs, gen_r.routing) << "\n";
    io::Table p({"connection", "parts", "track changes"});
    for (ConnId i = 0; i < cs.size(); ++i) {
      std::string parts;
      for (const RoutePart& part : gen_r.routing.parts(i)) {
        if (!parts.empty()) parts += " ";
        parts += "(";
        parts += std::to_string(part.left);
        parts += "-";
        parts += std::to_string(part.right);
        parts += ")@t";
        parts += std::to_string(part.track + 1);
      }
      p.add_row({cs[i].name, parts,
                 io::Table::num(gen_r.routing.track_changes(i))});
    }
    std::cout << p.str();
  }
  std::cout << "\nShape check (paper): the standard problem is infeasible, "
               "the generalized one feasible — track changing buys real "
               "routing capacity.\n";
  return 0;
}
