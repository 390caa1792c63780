#include "rl/export.hpp"

#include <cctype>
#include <sstream>

#include "util/check.hpp"

namespace dimmer::rl {

namespace {
bool valid_identifier(const std::string& s) {
  if (s.empty() || (!std::isalpha(static_cast<unsigned char>(s[0])) &&
                    s[0] != '_'))
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  return true;
}

void emit_array(std::ostringstream& os, const std::string& name,
                const std::vector<std::int16_t>& data) {
  os << "static const int16_t " << name << "[" << data.size() << "] = {";
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 12 == 0) os << "\n    ";
    os << data[i] << (i + 1 < data.size() ? "," : "");
  }
  os << "};\n";
}
}  // namespace

std::string export_quantized_c_header(const QuantizedMlp& net,
                                      const std::string& symbol_prefix) {
  DIMMER_REQUIRE(valid_identifier(symbol_prefix),
                 "symbol_prefix must be a valid C identifier");
  const auto& layers = net.layers();
  // The emitted inference routine uses fixed 64-slot activation buffers.
  for (const auto& l : layers)
    DIMMER_REQUIRE(l.in <= 64 && l.out <= 64,
                   "export supports layers up to width 64");
  std::ostringstream os;
  std::string guard = symbol_prefix;
  for (char& c : guard) c = static_cast<char>(std::toupper(c));

  os << "/* Generated by dimmer::rl::export_quantized_c_header.\n"
     << " * Fixed-point scale: " << net.scale()
     << " (weights are value * scale, rounded half away from zero).\n"
     << " * Inputs: int16 features at the same scale, e.g. +1.0 -> "
     << net.scale() << ".\n */\n"
     << "#ifndef " << guard << "_H\n#define " << guard << "_H\n\n"
     << "#include <stdint.h>\n\n"
     << "#define " << guard << "_SCALE " << net.scale() << "\n"
     << "#define " << guard << "_LAYERS " << layers.size() << "\n"
     << "#define " << guard << "_INPUTS " << layers.front().in << "\n"
     << "#define " << guard << "_OUTPUTS " << layers.back().out << "\n\n";

  for (std::size_t l = 0; l < layers.size(); ++l) {
    std::string base = symbol_prefix + "_l" + std::to_string(l);
    os << "/* layer " << l << ": " << layers[l].in << " -> " << layers[l].out
       << (layers[l].relu ? " (ReLU)" : " (linear)") << " */\n";
    emit_array(os, base + "_w", layers[l].w);
    emit_array(os, base + "_b", layers[l].b);
    os << '\n';
  }

  // Portable integer-only inference; mirrors QuantizedMlp::forward_fixed.
  os << "static int " << symbol_prefix << "_infer(const int16_t *x) {\n"
     << "  int32_t buf_a[64]; int32_t buf_b[64];\n"
     << "  int32_t *cur = buf_a, *next = buf_b, *tmp;\n"
     << "  int i, o, best;\n";
  os << "  for (i = 0; i < " << layers.front().in
     << "; i++) cur[i] = x[i];\n";
  for (std::size_t l = 0; l < layers.size(); ++l) {
    std::string base = symbol_prefix + "_l" + std::to_string(l);
    os << "  for (o = 0; o < " << layers[l].out << "; o++) {\n"
       << "    int32_t acc = (int32_t)" << base << "_b[o] * " << guard
       << "_SCALE;\n"
       << "    for (i = 0; i < " << layers[l].in << "; i++)\n"
       << "      acc += (int32_t)" << base << "_w[o * " << layers[l].in
       << " + i] * cur[i];\n"
       << "    acc /= " << guard << "_SCALE;\n";
    if (layers[l].relu) os << "    if (acc < 0) acc = 0;\n";
    os << "    next[o] = acc;\n  }\n"
       << "  tmp = cur; cur = next; next = tmp;\n";
  }
  os << "  best = 0;\n"
     << "  for (o = 1; o < " << layers.back().out << "; o++)\n"
     << "    if (cur[o] > cur[best]) best = o;\n"
     << "  return best;\n}\n\n"
     << "#endif /* " << guard << "_H */\n";
  return os.str();
}

}  // namespace dimmer::rl
