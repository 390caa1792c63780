#include "rl/mlp.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace dimmer::rl {

Mlp::Mlp(const std::vector<int>& sizes, std::uint64_t seed) {
  DIMMER_REQUIRE(sizes.size() >= 2, "Mlp needs at least in+out sizes");
  for (int s : sizes) DIMMER_REQUIRE(s > 0, "layer sizes must be positive");
  util::Pcg32 rng(seed);
  layers_.reserve(sizes.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    DenseLayer layer;
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    layer.relu = (l + 2 < sizes.size());  // all but the last use ReLU
    layer.w.resize(static_cast<std::size_t>(layer.in) * layer.out);
    layer.b.assign(static_cast<std::size_t>(layer.out), 0.0);
    double scale = std::sqrt(2.0 / layer.in);  // He initialisation
    for (double& w : layer.w) w = rng.normal(0.0, scale);
    layers_.push_back(std::move(layer));
  }
}

int Mlp::input_size() const { return layers_.front().in; }
int Mlp::output_size() const { return layers_.back().out; }

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

namespace {
void layer_forward(const DenseLayer& l, const std::vector<double>& x,
                   std::vector<double>& pre, std::vector<double>& post) {
  pre.assign(static_cast<std::size_t>(l.out), 0.0);
  for (int o = 0; o < l.out; ++o) {
    double acc = l.b[static_cast<std::size_t>(o)];
    const double* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
    for (int i = 0; i < l.in; ++i) acc += wrow[i] * x[static_cast<std::size_t>(i)];
    pre[static_cast<std::size_t>(o)] = acc;
  }
  post = pre;
  if (l.relu)
    for (double& v : post)
      if (v < 0.0) v = 0.0;
}
}  // namespace

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == input_size(),
                 "input size mismatch");
  std::vector<double> cur = x, pre, post;
  for (const auto& l : layers_) {
    layer_forward(l, cur, pre, post);
    cur = post;
  }
  return cur;
}

std::vector<double> Mlp::forward_cached(const std::vector<double>& x,
                                        ForwardCache& cache) const {
  DIMMER_REQUIRE(static_cast<int>(x.size()) == input_size(),
                 "input size mismatch");
  cache.inputs.clear();
  cache.pre_act.clear();
  std::vector<double> cur = x, pre, post;
  for (const auto& l : layers_) {
    cache.inputs.push_back(cur);
    layer_forward(l, cur, pre, post);
    cache.pre_act.push_back(pre);
    cur = post;
  }
  cache.output = cur;
  return cur;
}

void Mlp::backward(const ForwardCache& cache, const std::vector<double>& dout,
                   std::vector<LayerGrads>& grads) const {
  DIMMER_REQUIRE(grads.size() == layers_.size(), "grads shape mismatch");
  DIMMER_REQUIRE(static_cast<int>(dout.size()) == output_size(),
                 "dout size mismatch");
  std::vector<double> delta = dout;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const DenseLayer& l = layers_[li];
    LayerGrads& g = grads[li];
    const std::vector<double>& x = cache.inputs[li];
    const std::vector<double>& pre = cache.pre_act[li];

    // delta currently holds dLoss/d(post-activation of layer li).
    if (l.relu)
      for (int o = 0; o < l.out; ++o)
        if (pre[static_cast<std::size_t>(o)] <= 0.0)
          delta[static_cast<std::size_t>(o)] = 0.0;

    std::vector<double> dprev(static_cast<std::size_t>(l.in), 0.0);
    for (int o = 0; o < l.out; ++o) {
      double d = delta[static_cast<std::size_t>(o)];
      g.db[static_cast<std::size_t>(o)] += d;
      double* gw = &g.dw[static_cast<std::size_t>(o) * l.in];
      const double* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
      for (int i = 0; i < l.in; ++i) {
        gw[i] += d * x[static_cast<std::size_t>(i)];
        dprev[static_cast<std::size_t>(i)] += d * wrow[i];
      }
    }
    delta = std::move(dprev);
  }
}

std::vector<LayerGrads> Mlp::make_grads() const {
  std::vector<LayerGrads> g(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    g[i].dw.assign(layers_[i].w.size(), 0.0);
    g[i].db.assign(layers_[i].b.size(), 0.0);
  }
  return g;
}

void Mlp::zero_grads(std::vector<LayerGrads>& grads) {
  for (auto& g : grads) {
    std::fill(g.dw.begin(), g.dw.end(), 0.0);
    std::fill(g.db.begin(), g.db.end(), 0.0);
  }
}

void Mlp::copy_parameters_from(const Mlp& other) {
  DIMMER_REQUIRE(layers_.size() == other.layers_.size(),
                 "architecture mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    DIMMER_REQUIRE(layers_[i].in == other.layers_[i].in &&
                       layers_[i].out == other.layers_[i].out,
                   "architecture mismatch");
    layers_[i].w = other.layers_[i].w;
    layers_[i].b = other.layers_[i].b;
  }
}

void Mlp::save(std::ostream& os) const {
  os << "dimmer-mlp 1\n" << layers_.size() << '\n';
  os.precision(17);
  for (const auto& l : layers_) {
    os << l.in << ' ' << l.out << ' ' << (l.relu ? 1 : 0) << '\n';
    for (double w : l.w) os << w << ' ';
    os << '\n';
    for (double b : l.b) os << b << ' ';
    os << '\n';
  }
}

Mlp Mlp::load(std::istream& is) {
  // Every field is validated before use: a truncated, corrupt or mismatched
  // stream must produce a clear util::RequireError, never a half-built
  // network (callers such as load_or_train_policy catch and retrain).
  std::string magic;
  int version = 0;
  is >> magic >> version;
  DIMMER_REQUIRE(!is.fail() && magic == "dimmer-mlp" && version == 1,
                 "not a dimmer-mlp v1 stream");
  std::size_t n_layers = 0;
  is >> n_layers;
  DIMMER_REQUIRE(!is.fail() && n_layers >= 1 && n_layers < 64,
                 "implausible layer count in mlp stream");
  Mlp net;
  int prev_out = -1;
  for (std::size_t li = 0; li < n_layers; ++li) {
    DenseLayer l;
    int relu = 0;
    is >> l.in >> l.out >> relu;
    DIMMER_REQUIRE(!is.fail() && l.in > 0 && l.out > 0,
                   "corrupt mlp stream: bad layer header");
    DIMMER_REQUIRE(l.in <= 65536 && l.out <= 65536,
                   "implausible layer width in mlp stream");
    DIMMER_REQUIRE(relu == 0 || relu == 1,
                   "corrupt mlp stream: bad activation flag");
    DIMMER_REQUIRE(prev_out < 0 || l.in == prev_out,
                   "corrupt mlp stream: layer shapes do not chain");
    prev_out = l.out;
    l.relu = relu != 0;
    // Grow with the values actually read, never from the header alone: a
    // header may claim 2^32 weights in a 30-byte stream.
    const std::size_t n_w = static_cast<std::size_t>(l.in) * l.out;
    double v = 0.0;
    while (l.w.size() < n_w && is >> v) l.w.push_back(v);
    while (static_cast<int>(l.b.size()) < l.out && is >> v) l.b.push_back(v);
    DIMMER_REQUIRE(!is.fail(), "corrupt mlp stream: truncated weights");
    for (double w : l.w)
      DIMMER_REQUIRE(std::isfinite(w), "non-finite weight in mlp stream");
    for (double b : l.b)
      DIMMER_REQUIRE(std::isfinite(b), "non-finite bias in mlp stream");
    net.layers_.push_back(std::move(l));
  }
  return net;
}

Adam::Adam(const Mlp& net, Config cfg) : cfg_(cfg) {
  m_ = net.make_grads();
  v_ = net.make_grads();
}

void Adam::step(Mlp& net, const std::vector<LayerGrads>& grads,
                double batch_scale) {
  DIMMER_REQUIRE(grads.size() == m_.size(), "grads shape mismatch");
  ++t_;
  double bc1 = 1.0 - std::pow(cfg_.beta1, t_);
  double bc2 = 1.0 - std::pow(cfg_.beta2, t_);
  auto& layers = net.mutable_layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    auto update = [&](std::vector<double>& p, const std::vector<double>& g,
                      std::vector<double>& m, std::vector<double>& v) {
      for (std::size_t i = 0; i < p.size(); ++i) {
        double grad = g[i] * batch_scale;
        m[i] = cfg_.beta1 * m[i] + (1.0 - cfg_.beta1) * grad;
        v[i] = cfg_.beta2 * v[i] + (1.0 - cfg_.beta2) * grad * grad;
        double mhat = m[i] / bc1;
        double vhat = v[i] / bc2;
        p[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
      }
    };
    update(layers[li].w, grads[li].dw, m_[li].dw, v_[li].dw);
    update(layers[li].b, grads[li].db, m_[li].db, v_[li].db);
  }
}

}  // namespace dimmer::rl
